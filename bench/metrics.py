"""The metrics the benchmark emits, and the statistics behind them.

``END_TO_END`` come from an untraced run and are compared between
commits against the bounds in ``BENCHMARK.json``.  ``PER_LAYER`` come
from a separate ``--trace`` run and carry no bound.  ``python -m bench
check`` keeps ``BENCHMARK.json`` equal to these declarations.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from bench.layers import LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("us_per_pkt_p50", "us/pkt", "lower"),
    Metric("us_per_pkt_p90", "us/pkt", "lower"),
    Metric("wire_pkts_per_s", "pkts/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

#: Pipeline stages, each timed around its public entry point.
STAGES = ("collect", "sanitize", "defend", "features", "fit", "predict")

#: Program counters read through ``repro.obs``: simulated statistics,
#: which a change to simulator speed must leave identical.
OBS_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("tcp.segments_sent", "count"),
    ("tcp.packets_sent", "count"),
    ("tcp.retransmissions", "count"),
    ("tcp.timeouts", "count"),
    ("tcp.tsq_blocked", "count"),
    ("tcp.pacing_stalls", "count"),
    ("simnet.events_processed", "count"),
    ("simnet.sim_seconds", "sim_s"),
    ("stob.actions_applied", "count"),
    ("stob.gated_segments", "count"),
    ("pageload.stalls", "count"),
)

PER_LAYER: Tuple[Metric, ...] = (
    *(
        metric
        for layer in LAYERS
        for metric in (
            Metric(f"layer.{layer}.calls", "count", "lower"),
            Metric(f"layer.{layer}.self_s", "s", "lower"),
        )
    ),
    *(
        metric
        for stage in STAGES
        for metric in (
            Metric(f"stage.{stage}.calls", "count", "lower"),
            Metric(f"stage.{stage}.busy_s", "s", "lower"),
        )
    ),
    Metric("calls_per_op", "count", "lower"),
    *(Metric(name, unit, "lower") for name, unit in OBS_COUNTERS),
    Metric("tcp.packets_per_segment", "pkts/seg", "higher"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace_overhead", "x", "lower"),
)

#: Fewest samples a percentile must have beyond it to be reported.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples above the ``q``-th percentile of ``n`` (linear interpolation)."""
    if n == 0:
        return 0
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile has ``MIN_BEYOND``
    samples beyond it."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile; refuses one with too few samples beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def percentile_of(name: str) -> float:
    """The percentile a metric name ends in (``us_per_pkt_p90`` -> 90), or 0."""
    head, _, tail = name.rpartition("_p")
    return float(tail) if head and tail.isdigit() else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
