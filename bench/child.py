"""One workload measured in this process: the child side of a run.

An untraced run warms up, then replays the workload's ops in whole
passes until ``seconds`` have passed (stopping at the pass boundary
nearest to it) and at least ``MIN_OPS`` ops have run, so every
percentile it reports has ``MIN_BEYOND`` samples beyond it.

A traced run makes exactly one untraced pass and one traced pass, so
its call counts are exact for a seed.  The traced pass runs under
cProfile with ``repro.obs`` enabled; the ratio of the two walls is the
tracing overhead.
"""

from __future__ import annotations

import cProfile
import pstats
import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from bench.layers import group_profile
from bench.metrics import (
    END_TO_END,
    OBS_COUNTERS,
    STAGES,
    min_samples,
    percentile,
    percentile_of,
)
from bench.workloads import Tally

#: Ops an untraced run makes at least: enough for every percentile.
MIN_OPS = max(
    min_samples(percentile_of(m.name)) for m in END_TO_END if percentile_of(m.name)
)
#: An untraced run stops after this many seconds whatever it has done.
TIME_CAP = 150.0

Values = Dict[str, Tuple[float, int]]


def run_pass(workload, ops: Optional[Sequence] = None,
             profiler: Optional[cProfile.Profile] = None) -> Tally:
    """Run ``ops`` (default: all of the workload's) once, in order."""
    tally = Tally()
    with workload.hooks(tally):
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        for op in workload.ops if ops is None else ops:
            try:
                workload.run_op(op, tally)
            except Exception as exc:  # a failed op is counted; the loop goes on
                tally.record(1, 1, f"{op!r}: {exc!r}")
        if profiler is not None:
            profiler.disable()
        tally.wall = time.perf_counter() - start
    return tally


def _outcome(passes: List[Tally], values: Values) -> dict:
    digests = [p.digest.hexdigest() for p in passes]
    problems = [problem for p in passes for problem in p.problems]
    if len(set(digests)) > 1:
        problems.append(f"passes gave different outputs: {digests}")
    return {
        "values": {name: list(value) for name, value in values.items()},
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "consistent": len(set(digests)) == 1,
        "problems": problems[:20],
        "outputs_sha256": digests[0],
        "outputs": passes[0].outputs,
        "pass_wall_s": [p.wall for p in passes],
        "stages": {
            stage: [sum(p.stages[stage][0] for p in passes),
                    sum(p.stages[stage][1] for p in passes)]
            for stage in STAGES
        },
    }


def measure(workload, seconds: float) -> dict:
    """The untraced run: every end-to-end metric but ``setup_s``."""
    if workload.warm_up:
        run_pass(workload, workload.ops[:1])
    passes: List[Tally] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload))
        elapsed = time.perf_counter() - start
        done = sum(len(p.ops) for p in passes)
        if elapsed >= TIME_CAP or not passes[-1].ops:
            break
        if done >= MIN_OPS and elapsed + passes[-1].wall / 2 >= seconds:
            break
    ops = [op for p in passes for op in p.ops]
    n = len(ops)
    values: Values = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    # Ops that raised left no timing; with none left there is nothing
    # to time, and a percentile is reported only with enough ops.
    if ops:
        us_per_pkt = [s / max(k, 1) * 1e6 for s, k in ops]
        values["wall_s"] = (statistics.median(p.wall for p in passes), len(passes))
        values["wire_pkts_per_s"] = (sum(k for _s, k in ops) / sum(s for s, _k in ops), n)
        for name in ("us_per_pkt_p50", "us_per_pkt_p90"):
            q = percentile_of(name)
            if n >= min_samples(q):
                values[name] = (percentile(us_per_pkt, q), n)
    return _outcome(passes, values)


def trace(workload) -> dict:
    """The traced run: every per-layer metric."""
    from repro.obs import runtime as obs_runtime

    if workload.warm_up:
        run_pass(workload, workload.ops[:1])
    reference = run_pass(workload)
    profiler = cProfile.Profile()
    session = obs_runtime.enable()
    try:
        traced = run_pass(workload, profiler=profiler)
        counters = session.registry.snapshot()["counters"]
    finally:
        obs_runtime.disable()
    n = len(traced.ops)
    layers = group_profile(pstats.Stats(profiler).stats)
    values: Values = {}
    for layer, (calls, self_s) in layers.items():
        values[f"layer.{layer}.calls"] = (calls, n)
        values[f"layer.{layer}.self_s"] = (self_s, n)
    for stage, (calls, busy) in traced.stages.items():
        values[f"stage.{stage}.calls"] = (calls, n)
        values[f"stage.{stage}.busy_s"] = (busy, n)
    values["calls_per_op"] = (sum(c for c, _ in layers.values()) / max(n, 1), n)
    for name, _unit in OBS_COUNTERS:
        values[name] = (counters.get(name, 0), n)
    segments = counters.get("tcp.segments_sent", 0)
    values["tcp.packets_per_segment"] = (
        counters.get("tcp.packets_sent", 0) / segments if segments else 0.0, n)
    values["trace.wall_s"] = (traced.wall, n)
    values["trace_overhead"] = (traced.wall / reference.wall, n)
    return _outcome([reference, traced], values)
