"""The trial executor: every (site, sample) grid becomes a dataset here.

Dataset collection is the long pole of every experiment in this repo —
thousands of simulated page loads — and under fault injection
individual trials can stall or fail.  This module is the one place a
grid of page-load trials (TCP, QUIC or Stob-enforced, see
:class:`PageLoadTrial`) turns into a dataset, with the reliability
layer a long collection run needs:

* **one seed derivation** — attempt 0 of trial (site, sample) draws
  from :func:`~repro.web.pageload.visit_seed_rng` ``(seed, site,
  sample)``; retry ``k`` appends ``k`` to that seed tuple.  A trial's
  randomness depends only on which trial it is, never on execution
  order, worker count or the trial kind, so an interrupted run resumed
  from a checkpoint produces a byte-identical final dataset and two
  conditions collected with the same seed visit the same pages over
  the same paths;
* **stall detection** — per-trial simulated-time deadlines surface as
  :class:`~repro.web.pageload.PageLoadStalled`, and an optional
  wall-clock deadline aborts trials that burn real time;
* **retry with reseed and exponential backoff** — a failed trial is
  retried up to a budget, each attempt with a fresh derived seed;
* **structured failure log** — trials that exhaust their budget are
  recorded (site, sample, attempts, error) and the run completes
  gracefully with reduced samples;
* **checkpointing** — partial datasets are persisted periodically
  through :mod:`repro.capture.serialize` plus a JSON manifest, and
  ``resume=True`` skips completed trials;
* **parallel execution** — ``workers > 1`` fans trials out over a
  supervised process pool in chunks; results are merged by
  coordinate, so the final dataset is bit-identical for any worker
  count, and checkpoint/resume keeps working across worker-count
  changes.

:func:`run_trials` is the plain call (one attempt, no checkpoint) that
``collect_dataset``, the enforcement and the QUIC experiments use;
:func:`collect_resilient` adds retries, checkpoints and caching.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ARTIFACT_DECODE_ERRORS,
    RETRYABLE_ERRORS,
    RunTerminated,
    TrialError,
    sigterm_translated,
)
from repro.ioutil import atomic_write_json
from repro.obs import runtime as _obs_runtime
from repro.parallel import chunked, default_chunk_size, resolve_workers
from repro.supervise import SupervisedPool, SupervisorConfig

from repro.capture.dataset import Dataset
from repro.capture.serialize import load_dataset, save_dataset_atomic
from repro.capture.trace import Trace
from repro.stob.controller import split_delay_controller
from repro.web import pageload
from repro.web.pageload import PageLoadConfig, PageLoadStalled, visit_seed_rng
from repro.web.sites import SITE_CATALOG

log = logging.getLogger("repro.runner")


class TrialDeadlineExceeded(TrialError):
    """A trial exceeded its wall-clock budget (raised by the watchdog)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff shape for one trial."""

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass
class TrialFailure:
    """One trial that exhausted its retry budget."""

    label: str
    index: int
    attempts: int
    error: str
    message: str


@dataclass
class CollectionReport:
    """What happened during a (possibly resumed) collection run."""

    completed_trials: int = 0
    resumed_trials: int = 0
    retries: int = 0
    stalls: int = 0
    failures: List[TrialFailure] = field(default_factory=list)
    #: True when the whole collection was served from the artifact
    #: cache (no trials executed this run).
    from_cache: bool = False
    #: Every stalled attempt of this run, in grid order (not kept in
    #: checkpoints or the cache: a resumed run only logs its own).
    stall_log: List[PageLoadStalled] = field(default_factory=list, repr=False)

    @property
    def dropped_trials(self) -> int:
        return len(self.failures)

    @property
    def quarantined_trials(self) -> int:
        """Trials excluded by the supervisor after killing workers."""
        return sum(1 for f in self.failures if f.error == "WorkerCrashError")

    def summary(self) -> str:
        text = (
            f"{self.completed_trials} trials collected "
            f"({self.resumed_trials} from checkpoint), "
            f"{self.retries} retries, {self.stalls} stalls, "
            f"{self.dropped_trials} dropped"
        )
        if self.quarantined_trials:
            text += f" ({self.quarantined_trials} quarantined)"
        return text


@dataclass(frozen=True)
class RunnerConfig:
    """Reliability and parallelism knobs for a collection run.

    Frozen: derive variants with :func:`dataclasses.replace`.  Only the
    ``retry`` policy and ``trial_wall_deadline`` shape what gets
    *collected*; the checkpoint/worker/chunk knobs are wall-clock-only
    and are therefore excluded from cache-key derivation.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Wall-clock seconds one trial attempt may burn (None = unlimited).
    trial_wall_deadline: Optional[float] = None
    #: Write a checkpoint every N completed trials (0 disables).
    checkpoint_every: int = 25
    checkpoint_path: Optional[str] = None
    #: Trial-executor processes: 1 = in-process (the default fast
    #: path), N > 1 = a pool of N, 0 = one per core.  Results are
    #: bit-identical for any value because trial seeds are
    #: position-derived; ``trial_fn`` must be picklable when > 1.
    workers: int = 1
    #: Trials per pool task (None = auto, ~4 chunks per worker).
    chunk_size: Optional[int] = None
    #: Failure handling for the parallel executor: worker-death
    #: recovery, poison-trial quarantine, circuit breaker, hang kills.
    #: Recovery replays position-seeded work, so (like ``workers``)
    #: none of it can change the collected bytes.
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)

    def to_dict(self) -> dict:
        from repro.experiments.config import config_to_dict

        return config_to_dict(self)


#: A trial function: (label, sample index, rng, watchdog) -> Trace.
TrialFn = Callable[[str, int, np.random.Generator, Optional[Callable[[], None]]], Trace]

@dataclass(frozen=True)
class PageLoadTrial:
    """One strict page load of the labelled site: the trial spec of
    every collection path.

    ``quic`` swaps the TCP transport for QUIC.  ``enforce`` installs the
    split+delay Stob controller on the server endpoint; its delay
    generator is ``rng.spawn(1)[0]``, a child of the visit's generator,
    and spawning leaves the visit's own draws (path, page) exactly
    those of the undefended visit.  A deadline-truncated load raises
    :class:`~repro.web.pageload.PageLoadStalled`, so partial traces
    never enter a dataset.  A dataclass rather than a closure so it
    pickles — the parallel executor ships it to worker processes.
    """

    config: PageLoadConfig
    quic: bool = False
    enforce: bool = False

    def __call__(
        self,
        label: str,
        index: int,
        rng: np.random.Generator,
        watchdog: Optional[Callable[[], None]],
    ) -> Trace:
        controller = split_delay_controller(rng.spawn(1)[0]) if self.enforce else None
        if self.quic:
            from repro.quic.pageload import load_page_quic_result as load
        else:
            # Looked up per call, so a wrapper installed on the module
            # (a per-visit timer, say) sees every visit.
            load = pageload.load_page_result
        result = load(
            SITE_CATALOG[label], self.config, rng,
            server_controller=controller, watchdog=watchdog,
        )
        if not result.completed:
            raise PageLoadStalled(label, result)
        return result.trace


def pageload_trial_fn(config: PageLoadConfig) -> TrialFn:
    """The default (picklable) page-load trial function."""
    return PageLoadTrial(config)


@dataclass
class TrialOutcome:
    """Everything one trial's retry loop produced (shipped back from
    pool workers; also used by the in-process path)."""

    label: str
    sample: int
    trace: Optional[Trace]
    retries: int = 0
    #: The stalled attempts, oldest first.
    stalled: List[PageLoadStalled] = field(default_factory=list)
    failure: Optional[TrialFailure] = None

    @property
    def stalls(self) -> int:
        return len(self.stalled)


def execute_trial(
    trial_fn: TrialFn,
    label: str,
    sample: int,
    master_seed: int,
    retry: RetryPolicy,
    wall_deadline: Optional[float] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> TrialOutcome:
    """One trial with retries — the shared core of the serial and
    parallel paths.  Attempt ``k`` draws from
    ``visit_seed_rng(master_seed, label, sample, k)``, so where the
    trial executes never changes its randomness."""
    outcome = TrialOutcome(label=label, sample=sample, trace=None)
    last_error: Optional[BaseException] = None
    trial_started = clock()
    for attempt in range(retry.max_attempts):
        rng = visit_seed_rng(master_seed, label, sample, attempt)
        watchdog: Optional[Callable[[], None]] = None
        if wall_deadline is not None:
            started = clock()

            def watchdog() -> None:
                elapsed = clock() - started
                if elapsed > wall_deadline:
                    raise TrialDeadlineExceeded(
                        f"trial exceeded wall-clock budget "
                        f"({elapsed:.1f}s > {wall_deadline:.1f}s)"
                    )

        try:
            outcome.trace = trial_fn(label, sample, rng, watchdog)
            _observe_trial(outcome, clock() - trial_started)
            return outcome
        except RETRYABLE_ERRORS as error:
            last_error = error
            if isinstance(error, PageLoadStalled):
                outcome.stalled.append(error)
            if attempt + 1 < retry.max_attempts:
                outcome.retries += 1
                sleep(retry.delay(attempt + 1))
    outcome.failure = TrialFailure(
        label=label,
        index=sample,
        attempts=retry.max_attempts,
        error=type(last_error).__name__,
        message=str(last_error),
    )
    _observe_trial(outcome, clock() - trial_started)
    return outcome


def _observe_trial(outcome: TrialOutcome, wall_seconds: float) -> None:
    """Record one finished retry loop in the active metrics registry.

    Runs in whichever process executed the trial — the parent on the
    serial path, a pool worker otherwise (worker registries travel
    home as snapshots, see :mod:`repro.obs.runtime`).  All counters
    here are sim-determined, so serial and parallel runs report equal
    totals; only the wall-time timer is machine-dependent.
    """
    obs = _obs_runtime.session()
    if obs is None:
        return
    registry = obs.registry
    registry.counter("runner.trials").add(1)
    if outcome.trace is not None:
        registry.counter("runner.trials_completed").add(1)
    registry.counter("runner.retries").add(outcome.retries)
    registry.counter("runner.stalls").add(outcome.stalls)
    if outcome.failure is not None:
        registry.counter("runner.trials_failed").add(1)
    # A timer, not a histogram: histograms are deterministic for any
    # worker count, and wall time is not.
    registry.timer("runner.trial_wall").record(wall_seconds)


def _execute_trial_chunk(
    trial_fn: TrialFn,
    retry: RetryPolicy,
    master_seed: int,
    wall_deadline: Optional[float],
    trials: List[Tuple[str, int]],
) -> List[TrialOutcome]:
    """Pool-worker task: run a chunk of ``(label, sample)`` trials and
    ship their outcomes back in one message."""
    return [
        execute_trial(
            trial_fn, label, sample, master_seed, retry,
            wall_deadline=wall_deadline,
        )
        for label, sample in trials
    ]


class ResilientRunner:
    """Executes a grid of (site, sample) trials with retries and
    checkpointing.

    ``sleep`` and ``clock`` are injectable for tests (no real backoff
    sleeping or wall-clock waiting in CI).
    """

    #: 2: trial seeds come from ``visit_seed_rng``; version-1
    #: checkpoints (``[seed, site_index, sample, attempt]`` seeds) are
    #: refused by the fingerprint check, never mixed in.
    CHECKPOINT_VERSION = 2

    def __init__(
        self,
        config: Optional[RunnerConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or RunnerConfig()
        self._sleep = sleep
        self._clock = clock

    # -- checkpoint format -------------------------------------------------

    @staticmethod
    def _npz_path(checkpoint_path: str) -> str:
        # np.savez appends ".npz" to extension-less paths; normalise so
        # the load side looks for the file that was actually written.
        if not checkpoint_path.endswith(".npz"):
            return checkpoint_path + ".npz"
        return checkpoint_path

    def _manifest_path(self, checkpoint_path: str) -> str:
        return self._npz_path(checkpoint_path) + ".manifest.json"

    def _fingerprint(self, sites: Sequence[str], n_samples: int, master_seed: int) -> str:
        return f"v{self.CHECKPOINT_VERSION}:{master_seed}:{n_samples}:{','.join(sites)}"

    def _write_checkpoint(
        self,
        checkpoint_path: str,
        fingerprint: str,
        results: Dict[str, Dict[int, Trace]],
        failures: List[TrialFailure],
    ) -> None:
        dataset = Dataset()
        indices: Dict[str, List[int]] = {}
        for label in sorted(results):
            ordered = sorted(results[label])
            indices[label] = ordered
            dataset.traces[label] = [results[label][i] for i in ordered]
        # Both files are published atomically (tmp + fsync + replace):
        # a SIGKILL mid-checkpoint must leave either the previous
        # complete checkpoint or the new one, never a truncated .npz —
        # and the manifest is written second, so a manifest always
        # refers to a fully published archive.
        save_dataset_atomic(dataset, self._npz_path(checkpoint_path))
        manifest = {
            "version": self.CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "indices": indices,
            "failures": [asdict(f) for f in failures],
        }
        atomic_write_json(self._manifest_path(checkpoint_path), manifest)
        obs = _obs_runtime.session()
        if obs is not None:
            obs.registry.counter("runner.checkpoint_writes").add(1)
            obs.emit(
                "checkpoint.write", "runner",
                trials=sum(len(v) for v in results.values()),
            )

    def _load_checkpoint(
        self, checkpoint_path: str, fingerprint: str
    ) -> Tuple[Dict[str, Dict[int, Trace]], List[TrialFailure]]:
        manifest_path = self._manifest_path(checkpoint_path)
        npz_path = self._npz_path(checkpoint_path)
        if not (os.path.exists(npz_path) and os.path.exists(manifest_path)):
            return {}, []
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except ARTIFACT_DECODE_ERRORS:
            return self._evict_checkpoint(checkpoint_path, "unreadable manifest")
        if manifest.get("fingerprint") != fingerprint:
            raise ValueError(
                "checkpoint was written by a different run configuration: "
                f"{manifest.get('fingerprint')!r} != {fingerprint!r}; "
                "remove it or rerun with the original seed/sites/samples"
            )
        # A checkpoint interrupted by SIGKILL (or disk-full) can leave a
        # truncated archive behind on filesystems without atomic-write
        # guarantees; resume must fall back to a fresh collection, not
        # crash — the data is recomputable by construction.
        try:
            dataset = load_dataset(npz_path)
            results: Dict[str, Dict[int, Trace]] = {}
            for label, ordered in manifest["indices"].items():
                traces = dataset.traces.get(label, [])
                results[label] = {
                    int(index): trace for index, trace in zip(ordered, traces)
                }
            failures = [TrialFailure(**f) for f in manifest["failures"]]
        except ARTIFACT_DECODE_ERRORS + (TypeError,):
            return self._evict_checkpoint(checkpoint_path, "corrupt archive")
        return results, failures

    def _evict_checkpoint(
        self, checkpoint_path: str, reason: str
    ) -> Tuple[Dict[str, Dict[int, Trace]], List[TrialFailure]]:
        """Remove an invalid checkpoint pair and resume from scratch."""
        log.warning(
            "checkpoint at %s is invalid (%s); evicting it and "
            "collecting from scratch", checkpoint_path, reason,
        )
        obs = _obs_runtime.session()
        if obs is not None:
            obs.registry.counter("runner.checkpoint_corrupt").add(1)
            obs.emit("checkpoint.corrupt", "runner", reason=reason)
        for path in (
            self._npz_path(checkpoint_path),
            self._manifest_path(checkpoint_path),
        ):
            try:
                os.remove(path)
            except OSError:
                pass
        return {}, []

    # -- execution ---------------------------------------------------------

    @staticmethod
    def _merge_outcome(outcome: TrialOutcome, report: CollectionReport) -> None:
        report.retries += outcome.retries
        report.stalls += outcome.stalls
        if outcome.failure is not None:
            report.failures.append(outcome.failure)

    def collect(
        self,
        sites: Sequence[str],
        n_samples: int,
        trial_fn: TrialFn,
        master_seed: int,
        resume: bool = False,
        progress: Optional[Callable[[str, int], None]] = None,
    ) -> Tuple[Dataset, CollectionReport]:
        """Run the (site x sample) grid and return (dataset, report).

        With ``resume=True`` and a configured ``checkpoint_path``,
        completed trials are loaded from the checkpoint and skipped;
        the final dataset is identical to an uninterrupted run because
        trial seeds are position-derived.  On KeyboardInterrupt — or
        SIGTERM, which container schedulers send on shutdown and which
        is translated to :class:`repro.errors.RunTerminated` here — a
        final checkpoint is written before the interrupt propagates,
        so the run is resumable.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        sites = sorted(sites)
        report = CollectionReport()
        checkpoint_path = self.config.checkpoint_path
        fingerprint = self._fingerprint(sites, n_samples, master_seed)
        results: Dict[str, Dict[int, Trace]] = {}
        failed: Dict[str, set] = {}
        if resume:
            if checkpoint_path is None:
                raise ValueError("resume=True requires a checkpoint_path")
            results, report.failures = self._load_checkpoint(
                checkpoint_path, fingerprint
            )
            report.resumed_trials = sum(len(v) for v in results.values())
            report.completed_trials = report.resumed_trials
            for failure in report.failures:
                failed.setdefault(failure.label, set()).add(failure.index)

        since_checkpoint = 0

        def maybe_checkpoint(force: bool = False) -> None:
            nonlocal since_checkpoint
            if checkpoint_path is None:
                return
            every = self.config.checkpoint_every
            if force or (every > 0 and since_checkpoint >= every):
                self._write_checkpoint(
                    checkpoint_path, fingerprint, results, report.failures
                )
                since_checkpoint = 0

        # Trials still to run, in deterministic grid order.
        pending = [
            (label, sample)
            for label in sites
            for sample in range(n_samples)
            if sample not in results.get(label, {})
            and sample not in failed.get(label, set())
        ]

        obs = _obs_runtime.session()

        # Stalled attempts by coordinate: the report lists them in grid
        # order whatever order the trials complete in.
        stalled: Dict[Tuple[str, int], List[PageLoadStalled]] = {}

        def complete(outcome: TrialOutcome) -> None:
            nonlocal since_checkpoint
            self._merge_outcome(outcome, report)
            if outcome.stalled:
                stalled[(outcome.label, outcome.sample)] = outcome.stalled
            if obs is not None:
                if outcome.retries:
                    obs.emit(
                        "trial.retry", "runner", label=outcome.label,
                        sample=outcome.sample, retries=outcome.retries,
                    )
                if outcome.failure is not None:
                    obs.emit(
                        "trial.failure", "runner", label=outcome.label,
                        sample=outcome.sample, error=outcome.failure.error,
                    )
                else:
                    obs.emit(
                        "trial.end", "runner", label=outcome.label,
                        sample=outcome.sample, retries=outcome.retries,
                        stalls=outcome.stalls,
                    )
            if outcome.trace is not None:
                results.setdefault(outcome.label, {})[outcome.sample] = outcome.trace
                report.completed_trials += 1
                since_checkpoint += 1
                if progress is not None:
                    progress(outcome.label, outcome.sample)
            maybe_checkpoint()

        workers = resolve_workers(self.config.workers)
        with sigterm_translated():
            try:
                if workers > 1 and len(pending) > 1:
                    self._collect_parallel(
                        pending, trial_fn, master_seed, workers, complete, report
                    )
                else:
                    for label, sample in pending:
                        if obs is not None:
                            obs.emit(
                                "trial.start", "runner", label=label, sample=sample
                            )
                        outcome = execute_trial(
                            trial_fn, label, sample, master_seed,
                            self.config.retry,
                            wall_deadline=self.config.trial_wall_deadline,
                            sleep=self._sleep,
                            clock=self._clock,
                        )
                        complete(outcome)
            except (KeyboardInterrupt, RunTerminated):
                maybe_checkpoint(force=True)
                raise
        # Failure order must not depend on completion order (the
        # checkpoint manifest and report are part of the deterministic
        # output surface).
        report.failures.sort(key=lambda f: (f.label, f.index))
        report.stall_log = [
            stall for key in sorted(stalled) for stall in stalled[key]
        ]
        maybe_checkpoint(force=True)

        dataset = Dataset()
        for label in sites:
            if label in results:
                dataset.traces[label] = [
                    results[label][i] for i in sorted(results[label])
                ]
        return dataset, report

    def _collect_parallel(
        self,
        pending: List[Tuple[str, int]],
        trial_fn: TrialFn,
        master_seed: int,
        workers: int,
        complete: Callable[[TrialOutcome], None],
        report: CollectionReport,
    ) -> None:
        """Fan ``pending`` out over a supervised process pool in chunks.

        Outcomes are merged as chunks finish (so periodic checkpoints
        still happen mid-run), but every result is keyed by its trial
        coordinates and every seed is position-derived, so the final
        dataset is independent of completion order, worker count *and
        worker deaths*: the :class:`~repro.supervise.SupervisedPool`
        rebuilds crashed pools and reschedules lost chunks, which
        recompute identical bytes.  Poison trials it quarantines are
        recorded as structured failures on ``report``.  On interrupt,
        unstarted chunks are cancelled and the caller writes a final
        checkpoint covering everything merged so far.
        """
        chunk_size = self.config.chunk_size or default_chunk_size(
            len(pending), workers
        )
        chunks = chunked(pending, chunk_size)
        # With observability on, chunks run under worker-local metric
        # sessions whose snapshots ship back with the outcomes and are
        # folded into the parent registry (obs.absorb) — counter totals
        # therefore match the serial path for any worker count.  A
        # chunk lost to a worker crash never ships its snapshot, so
        # recovery does not double-count.
        chunk_fn = _execute_trial_chunk
        if _obs_runtime.session() is not None:
            chunk_fn = _obs_runtime.WorkerTask(_execute_trial_chunk)
        task = functools.partial(
            chunk_fn,
            trial_fn,
            self.config.retry,
            master_seed,
            self.config.trial_wall_deadline,
        )

        merged = set()

        def merge(payload: object) -> None:
            for outcome in _obs_runtime.absorb(payload):
                merged.add((outcome.label, outcome.sample))
                complete(outcome)

        supervisor_config = self.config.supervisor
        if (
            supervisor_config.trial_deadline is None
            and self.config.trial_wall_deadline is not None
        ):
            # Hang detection defaults to the trial wall deadline the
            # workers already enforce cooperatively — the supervisor's
            # copy catches trials hung somewhere the watchdog can't see.
            supervisor_config = replace(
                supervisor_config, trial_deadline=self.config.trial_wall_deadline
            )
        pool = SupervisedPool(
            workers, task, merge, config=supervisor_config
        )
        supervisor_report = pool.run(chunks)
        # Quarantined trials are the only ones allowed to come home
        # without an outcome.
        dropped = sorted(q.item for q in supervisor_report.quarantined)
        lost = sorted(trial for trial in pending if trial not in merged)
        if lost != dropped:
            raise RuntimeError(
                f"supervised collection lost {lost} but only quarantined {dropped}"
            )
        for quarantined in supervisor_report.quarantined:
            label, sample = quarantined.item
            report.failures.append(
                TrialFailure(
                    label=label,
                    index=sample,
                    attempts=quarantined.crashes,
                    error="WorkerCrashError",
                    message=(
                        f"quarantined after killing a worker "
                        f"{quarantined.crashes} times"
                    ),
                )
            )


def run_trials(
    trial_fn: TrialFn,
    n_samples: int,
    sites: Optional[Sequence[str]] = None,
    seed: int = 0,
    workers: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
    progress: Optional[Callable[[str, int], None]] = None,
    stall_log: Optional[List[PageLoadStalled]] = None,
) -> Dataset:
    """The plain collection call: one attempt per trial, no checkpoint.

    Attempt 0 of every trial, so each visit draws exactly
    ``visit_seed_rng(seed, site, sample)``.  A trial that stalls (or
    fails another retryable way) is dropped; stalls are appended to
    ``stall_log`` in grid order.  ``workers`` and ``supervisor`` are
    as in :class:`RunnerConfig`: neither changes the output bytes.
    """
    runner = ResilientRunner(
        RunnerConfig(
            retry=RetryPolicy(max_attempts=1),
            workers=workers,
            supervisor=supervisor or SupervisorConfig(),
        )
    )
    dataset, report = runner.collect(
        sites or sorted(SITE_CATALOG), n_samples, trial_fn, seed,
        progress=progress,
    )
    if stall_log is not None:
        stall_log.extend(report.stall_log)
    return dataset


def resilient_capture_key(
    sites: Sequence[str],
    n_samples: int,
    pageload_config: PageLoadConfig,
    seed: int,
    runner_config: RunnerConfig,
):
    """Capture-stage cache key of a resilient collection, or None when
    the run is not cacheable.

    The retry policy enters the key (retries decide which trials drop,
    so they shape the dataset); worker/checkpoint/chunk knobs do not
    (wall-clock only, byte-identical output).  The seed-scheme marker
    keeps entries written under the old per-trial seeds from ever
    being served.  A configured ``trial_wall_deadline`` makes outcomes
    machine-dependent, so such runs key to None and are never cached.
    """
    if runner_config.trial_wall_deadline is not None:
        return None
    from repro.cache import capture_key

    return capture_key(
        pageload_config,
        sites,
        n_samples,
        seed,
        collector={
            "runner": "resilient",
            "retry": runner_config.retry,
            "seeds": "visit_seed_rng",
        },
    )


def collect_resilient(
    sites: Sequence[str],
    n_samples: int,
    pageload_config: Optional[PageLoadConfig] = None,
    seed: int = 0,
    runner_config: Optional[RunnerConfig] = None,
    resume: bool = False,
    progress: Optional[Callable[[str, int], None]] = None,
    cache: Optional["ArtifactStore"] = None,
) -> Tuple[Dataset, CollectionReport]:
    """Convenience wrapper: resilient page-load collection of ``sites``.

    With ``cache`` set, the collected dataset (and its reliability
    report) is stored under a capture key that includes the retry
    policy — retries decide which trials drop, so they shape the
    dataset — but not worker/checkpoint knobs, which only affect wall
    clock.  A warm hit returns ``report.from_cache=True`` and runs no
    trials.  Runs with a ``trial_wall_deadline`` are never cached:
    their outcomes depend on machine speed, not just config.
    """
    runner_config = runner_config or RunnerConfig()
    pageload_config = pageload_config or PageLoadConfig()
    key = resilient_capture_key(
        sites, n_samples, pageload_config, seed, runner_config
    )
    cacheable = cache is not None and key is not None
    if cacheable:
        from repro.cache import CacheKey
        from repro.capture.serialize import dumps_dataset, loads_dataset

        report_key = CacheKey.derive("capture", {"report_for": key.digest})
        data = cache.get_bytes(key)
        if data is not None:
            try:
                dataset = loads_dataset(data)
            except ARTIFACT_DECODE_ERRORS:
                cache._count("corruptions")
            else:
                report = CollectionReport(
                    completed_trials=dataset.num_traces, from_cache=True
                )
                stored = cache.get_bytes(report_key)
                if stored is not None:
                    try:
                        meta = json.loads(stored.decode("utf-8"))
                        report.retries = int(meta.get("retries", 0))
                        report.stalls = int(meta.get("stalls", 0))
                        report.failures = [
                            TrialFailure(**f) for f in meta.get("failures", [])
                        ]
                    except ARTIFACT_DECODE_ERRORS + (TypeError,):
                        cache._count("corruptions")
                return dataset, report
    runner = ResilientRunner(runner_config)
    trial_fn = pageload_trial_fn(pageload_config)
    dataset, report = runner.collect(
        sites, n_samples, trial_fn, seed, resume=resume, progress=progress
    )
    if cacheable and key is not None:
        cache.put_bytes(key, dumps_dataset(dataset), kind="dataset")
        summary = {
            "retries": report.retries,
            "stalls": report.stalls,
            "failures": [asdict(f) for f in report.failures],
        }
        cache.put_bytes(
            report_key,
            json.dumps(summary, sort_keys=True, separators=(",", ":")).encode("utf-8"),
            kind="json",
        )
    return dataset, report
