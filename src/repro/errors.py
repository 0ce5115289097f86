"""Shared exception taxonomy: what failed, and who should handle it.

Every reliability layer in this repo — the resilient runner's retry
loop (:mod:`repro.experiments.runner`), the supervised worker pool
(:mod:`repro.supervise`) and the artifact cache's corruption fallback
(:mod:`repro.cache`) — needs to answer the same question when
something goes wrong: *is this the trial's fault, the machine's fault,
or the programmer's fault?*  The answer decides the recovery:

* :class:`TrialError` — one simulated trial failed for a reason
  intrinsic to that trial (a stalled page load, an exceeded deadline).
  **Retry the trial** with a fresh derived seed; if the budget runs
  out, log a structured failure and drop the sample.
* :class:`InfrastructureError` — the execution substrate failed (a
  worker process died, an artifact decoded to garbage).  The work
  itself is presumed fine: **retry elsewhere** — reschedule the chunk
  on a rebuilt pool, recompute the artifact — and escalate to the
  circuit breaker only on repetition.
* :class:`FatalError` — a programming or configuration error.
  Retrying cannot fix it; **propagate immediately** so the bug
  surfaces instead of burning a retry budget masking it.

Exceptions outside the taxonomy (bare ``RuntimeError``, ``KeyError``,
…) classify as fatal: the original runner treated any ``RuntimeError``
or ``ValueError`` as retryable, which silently converted programming
bugs into "flaky trials".  Domain exceptions opt into retry by
subclassing :class:`TrialError` (e.g.
:class:`repro.web.pageload.PageLoadStalled`); nothing is retryable by
accident.

This module sits below every other ``repro`` package (it imports
nothing from the repo), so any layer may import it without cycles.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import zipfile
from typing import Tuple, Type


class ReproError(Exception):
    """Base of the repo's exception taxonomy."""


class TrialError(ReproError, RuntimeError):
    """A single trial failed for trial-intrinsic reasons — retryable.

    Subclasses ``RuntimeError`` for compatibility: pre-taxonomy callers
    caught ``RuntimeError`` to mean "a trial went wrong", and domain
    exceptions (``PageLoadStalled``) were ``RuntimeError`` subclasses.
    """


class TraceError(TrialError):
    """A packet trace is malformed for the requested operation —
    non-finite timestamps, inconsistent arrays, or a degenerate shape
    the consumer cannot give meaning to.

    Raised by the feature extractors (k-FP, TAM, CUMUL) when handed a
    trace whose arrays bypass :class:`repro.capture.trace.Trace`
    validation (e.g. mutated in place, or decoded from a corrupt
    archive): a typed rejection instead of numpy warnings or silently
    garbage features.  *Empty* traces are not errors — every extractor
    documents a zero-filled vector for them."""


class InfrastructureError(ReproError, RuntimeError):
    """The execution substrate failed; the work itself is presumed
    fine.  Recover by retrying elsewhere (rebuilt pool, recompute)."""


class WorkerCrashError(InfrastructureError):
    """A pool worker process died abruptly (segfault, OOM kill,
    ``os._exit``).  Raised by the supervisor when recovery is
    impossible or disabled — e.g. a poison trial with quarantine off,
    or crash budgets exhausted."""


class CorruptArtifactError(InfrastructureError):
    """A cached artifact or checkpoint failed validation (truncated
    file, digest mismatch, undecodable payload)."""


class ManifestCorruptError(CorruptArtifactError):
    """A campaign manifest failed validation (truncated JSON, bad
    self-signature, schema mismatch, duplicate shard entries).  The
    *shard data* is presumed fine: recovery rebuilds the manifest from
    per-shard sidecars instead of discarding anything
    (:func:`repro.campaign.orchestrator.recover_manifest`)."""


class ShardCorruptError(CorruptArtifactError):
    """One campaign shard failed validation (missing file, payload
    digest mismatch, row-count drift).  Recovery is shard-scoped:
    ``repro campaign repair`` re-derives exactly the bad shards from
    their position-derived seeds."""


class FatalError(ReproError):
    """A programming or configuration error.  Never retried."""


class NonFiniteError(FatalError):
    """A numeric computation produced NaN or infinity where the
    pipeline guarantees finite values — e.g. MLP training diverged, or
    a feature matrix carries non-finite entries into a classifier.

    Fatal, not retryable: the same inputs reproduce the same
    non-finite values, and retrying would only let them poison cached
    eval artifacts.  Surfaces immediately with the offending stage in
    the message; the ``ml.nonfinite`` obs counter records occurrences.
    """


class RepairMismatchError(FatalError):
    """A deterministic re-derivation produced different bytes than the
    manifest recorded.  That can only mean the code or config changed
    under the campaign (or the manifest lies) — retrying cannot fix
    it, so it is fatal and surfaces immediately."""


class RunTerminated(BaseException):
    """The process received a termination request (SIGTERM).

    A ``BaseException`` — like ``KeyboardInterrupt`` — so it cannot be
    swallowed by retry loops or broad ``except Exception`` handlers:
    it must reach :meth:`ResilientRunner.collect`, which writes a final
    checkpoint and re-raises so the scheduler sees a clean shutdown.
    """


@contextlib.contextmanager
def sigterm_translated():
    """Translate SIGTERM into :class:`RunTerminated` inside the block.

    Container and batch schedulers signal shutdown with SIGTERM;
    raising it as an exception lets long-running loops (the resilient
    runner, the campaign orchestrator) unwind through their normal
    finalisation — last durable checkpoint/manifest stays consistent —
    and exit with the conventional 143.  Signal handlers can only be
    installed from the main thread; elsewhere this is a no-op and the
    caller relies on the surrounding process's handling.
    """
    if (
        threading.current_thread() is not threading.main_thread()
        or not hasattr(signal, "SIGTERM")
    ):
        yield
        return

    owner = os.getpid()

    def _on_sigterm(signum, frame):
        if os.getpid() != owner:
            # A process forked inside the block (a pool worker) inherits
            # this handler, but must die the default way: raising would
            # make it try to report the exception through a result pipe
            # nobody reads any more, and hang the coordinator's exit.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
            return
        raise RunTerminated("SIGTERM received; finalising and exiting")

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


#: What the runner's retry loop catches.  Deliberately narrow: a trial
#: opts into retry by raising (a subclass of) these.  Everything else
#: propagates after a checkpoint, because retrying cannot fix it.
RETRYABLE_ERRORS: Tuple[Type[BaseException], ...] = (
    TrialError,
    InfrastructureError,
)

#: What decoding a stored artifact can raise — the cache layers and
#: the checkpoint loader classify these as :class:`CorruptArtifactError`
#: situations: count the corruption, evict the entry, recompute.
#: (``zipfile.BadZipFile`` covers truncated ``.npz`` archives, which
#: numpy surfaces as either that or ``OSError``/``EOFError``.)
ARTIFACT_DECODE_ERRORS: Tuple[Type[Exception], ...] = (
    ValueError,
    KeyError,
    OSError,
    EOFError,
    zipfile.BadZipFile,
)


def classify(error: BaseException) -> str:
    """``'trial'``, ``'infrastructure'`` or ``'fatal'`` for ``error``.

    The single classification point the reliability layers share, so a
    new exception type changes behaviour everywhere by subclassing,
    not by editing N except-tuples.
    """
    if isinstance(error, TrialError):
        return "trial"
    if isinstance(error, InfrastructureError):
        return "infrastructure"
    return "fatal"


def is_retryable(error: BaseException) -> bool:
    """Should a retry loop spend budget on ``error``?"""
    return isinstance(error, RETRYABLE_ERRORS)
