"""The four workloads: inputs built from a seed, one operation at a time.

A workload holds its inputs (``ops``) and runs one of them with
``run_op``, recording into a :class:`Tally`.  The benchmark replays the
list of ops in a closed loop: one client, the next op only after the
previous one returned.  Every input is generated here from the seed,
and the program is driven only through its public functions;
``hooks`` patches timers around public entry points from outside
``src/`` and restores them afterwards.

Constructing a workload imports exactly the modules it needs, which is
what ``setup_s`` times.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from bench.metrics import STAGES


class Tally:
    """What one pass over a workload's ops measured."""

    def __init__(self) -> None:
        #: (host seconds, simulated wire packets) of each op.
        self.ops: List[Tuple[float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.stages: Dict[str, List[float]] = {stage: [0, 0.0] for stage in STAGES}
        self.digest = hashlib.sha256()
        #: What the ops produced besides traces, kept in the result file.
        self.outputs: Dict[str, object] = {}
        self.wall = 0.0

    def op(self, seconds: float, packets: int) -> None:
        self.ops.append((seconds, packets))

    def span(self, stage: str, seconds: float) -> None:
        entry = self.stages[stage]
        entry[0] += 1
        entry[1] += seconds

    def record(self, attempted: int, failed: int, problem: Optional[str] = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        self.record(1, 0 if ok else 1, problem)

    def check_visit(self, label: str, sample: int, result) -> None:
        """Digest a visit's trace; it must complete with both directions."""
        trace = result.trace
        for part in (label.encode(), sample.to_bytes(4, "little"),
                     trace.times.tobytes(), trace.directions.tobytes(),
                     trace.sizes.tobytes()):
            self.digest.update(part)
        directions = set(np.unique(trace.directions).tolist())
        self.check(
            result.completed and directions == {1, -1},
            f"{label}#{sample}: completed={result.completed} "
            f"directions={sorted(directions)} ({result.stall_summary()})",
        )


def timed(fn: Callable, record: Callable[[float], None],
          keep: Optional[Callable[..., bool]] = None) -> Callable:
    """``fn`` with each call's duration passed to ``record`` (only the
    calls ``keep`` accepts, when given)."""

    def wrapper(*args, **kwargs):
        if keep is not None and not keep(*args, **kwargs):
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record(time.perf_counter() - start)

    return wrapper


@contextlib.contextmanager
def patched(target: object, attr: str, value: object) -> Iterator[None]:
    """Set ``target.attr`` for the duration of the block."""
    original = getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, original)


class Pageload:
    """Stock page loads: 9 sites x 24 samples, ``PageLoadConfig()``."""

    name = "pageload"
    samples = 24
    warm_up = True

    def __init__(self, seed: int, samples: Optional[int] = None,
                 sites: Optional[Sequence[str]] = None, config=None) -> None:
        from repro.web.pageload import PageLoadConfig, load_page_result, visit_seed_rng
        from repro.web.sites import SITE_CATALOG

        self.seed = seed
        self.config = config or PageLoadConfig()
        self._load = load_page_result
        self._rng = visit_seed_rng
        self._catalog = SITE_CATALOG
        labels = list(sites) if sites is not None else sorted(SITE_CATALOG)
        count = self.samples if samples is None else samples
        # Sample-major, so the per-site mix of any prefix stays even.
        self.ops = [(label, s) for s in range(count) for label in labels]

    def controller(self, rng: np.random.Generator):
        """The server's Stob controller for one visit (none: stock stack)."""
        return None

    def hooks(self, tally: Tally) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def run_op(self, op, tally: Tally) -> None:
        label, sample = op
        rng = self._rng(self.seed, label, sample)
        controller = self.controller(rng)
        start = time.perf_counter()
        result = self._load(self._catalog[label], self.config, rng,
                            server_controller=controller)
        elapsed = time.perf_counter() - start
        tally.op(elapsed, len(result.trace))
        tally.span("collect", elapsed)
        tally.check_visit(label, sample, result)


class Enforced(Pageload):
    """The same visits with Stob split+delay enforced in the server stack."""

    name = "enforced"
    samples = 18

    def controller(self, rng: np.random.Generator):
        from repro.stob.actions import ComposedAction, DelayAction, SplitAction
        from repro.stob.controller import StobController

        # A child stream of the visit's own seed: the delays are a pure
        # function of the visit coordinates, and spawning leaves the
        # visit's draws exactly those of the stock visit.
        (delay_rng,) = rng.spawn(1)
        return StobController(action=ComposedAction(
            SplitAction(1200, 2), DelayAction(0.10, 0.30, rng=delay_rng)))


class BulkSweep:
    """Figure-3 points: one bulk flow on a 100 Gb/s path per op."""

    name = "bulk-sweep"
    warm_up = True

    def __init__(self, seed: int, config=None) -> None:
        from repro.experiments import figure3

        # 8 simulated ms per point instead of the experiment's 150 ms, at
        # a nineteenth of the cost; bench/README.md compares the goodput
        # of the two.
        self.config = config or figure3.Figure3Config(
            alphas=(0, 50, 100), warmup=0.002, measure=0.006
        )
        self.ops = list(self.config.alphas)
        self._figure3 = figure3
        self._flows: list = []

    @contextlib.contextmanager
    def hooks(self, tally: Tally) -> Iterator[None]:
        make_flow = self._figure3.make_flow

        def capturing(*args, **kwargs):
            flow = make_flow(*args, **kwargs)
            self._flows.append(flow)
            return flow

        with patched(self._figure3, "make_flow", capturing):
            yield

    def run_op(self, alpha: int, tally: Tally) -> None:
        self._flows.clear()
        start = time.perf_counter()
        point = self._figure3.run_point(alpha, self.config)
        elapsed = time.perf_counter() - start
        tally.op(elapsed, self._flows.pop().server_host.nic.tx_packets)
        tally.span("collect", elapsed)
        tally.digest.update(repr(sorted(vars(point).items())).encode())
        floor = 0.2 * self.config.link_gbps
        previous = list(tally.outputs.values())[-1] if tally.outputs else None
        tally.outputs[f"alpha={alpha}"] = vars(point)
        tally.check(
            (previous is None or point.goodput_gbps <= previous["goodput_gbps"])
            and (alpha < max(self.config.alphas) or point.goodput_gbps >= floor),
            f"alpha={alpha}: goodput {point.goodput_gbps:.2f} Gb/s "
            f"(previous {previous['goodput_gbps'] if previous else None}, floor {floor})",
        )


class Table2Cold:
    """The uncached Table-2 grid in the paper's evaluation setup.

    ``n_samples=11`` with ``balance_to=7``: every seed keeps at least 8
    traces a site after sanitising, so the forests always fit the same
    63 traces and the cost does not swing with the seed's dataset size,
    while the 99 visits give the percentiles enough ops.
    """

    name = "table2-cold"
    warm_up = False

    def __init__(self, seed: int, config=None) -> None:
        from repro.experiments import table2
        from repro.experiments.config import ExperimentConfig

        self.config = config or ExperimentConfig(
            n_samples=11, balance_to=7, n_folds=5, n_estimators=150, seed=seed
        )
        self.ops = [self.config]
        self._table2 = table2

    @contextlib.contextmanager
    def hooks(self, tally: Tally) -> Iterator[None]:
        from repro.capture.dataset import Dataset
        from repro.ml.forest import RandomForest
        from repro.web import pageload

        table2 = self._table2
        load = pageload.load_page_result

        def stage(name: str) -> Callable[[float], None]:
            return lambda seconds: tally.span(name, seconds)

        def visit(profile, *args, **kwargs):
            start = time.perf_counter()
            result = load(profile, *args, **kwargs)
            tally.op(time.perf_counter() - start, len(result.trace))
            tally.check_visit(profile.name, len(tally.ops), result)
            return result

        def defends(_dataset, transform) -> bool:
            return getattr(transform, "__name__", "") == "apply"

        with contextlib.ExitStack() as stack:
            for target, attr, wrapper in (
                (pageload, "load_page_result", visit),
                (table2, "collect_dataset",
                 timed(table2.collect_dataset, stage("collect"))),
                (table2, "sanitize_dataset",
                 timed(table2.sanitize_dataset, stage("sanitize"))),
                (Dataset, "map", timed(Dataset.map, stage("defend"), defends)),
                (table2.KfpFeatureExtractor, "extract_many",
                 timed(table2.KfpFeatureExtractor.extract_many, stage("features"))),
                (RandomForest, "fit", timed(RandomForest.fit, stage("fit"))),
                (RandomForest, "predict", timed(RandomForest.predict, stage("predict"))),
            ):
                stack.enter_context(patched(target, attr, wrapper))
            yield

    def run_op(self, config, tally: Tally) -> None:
        table = self._table2.run_table2(config, cache=None)
        cells = [
            (defense, n) for defense in self._table2.DEFENSE_ORDER
            for n in ("all",) + self._table2.N_VALUES
        ]
        scores = {key: [float(s) for s in table[key].fold_scores]
                  for key in cells if key in table}
        tally.digest.update(json.dumps(
            [[d, n, scores.get((d, n))] for d, n in cells]).encode())
        tally.outputs.update({f"{d}/{n}": scores.get((d, n)) for d, n in cells})
        chance = 1.0 / len(self._table2.SITE_CATALOG)
        for key in cells:
            got = scores.get(key)
            ok = (
                got is not None
                and len(got) == config.n_folds
                and all(0.0 <= s <= 1.0 for s in got)
                and (key != ("original", "all") or float(np.mean(got)) > chance)
            )
            tally.check(ok, f"cell {key}: fold scores {got}")


WORKLOADS = {w.name: w for w in (Pageload, Enforced, BulkSweep, Table2Cold)}
