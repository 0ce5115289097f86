"""Emulation vs enforcement: the paper's central claim, measured.

The paper's §2.3 argument is that WF papers *emulate* defenses as
post-hoc trace transforms, while a deployed defense must be *enforced*
by the stack — and the two differ, because enforcement interacts with
congestion control, pacing, ACK clocks and TSO.

This experiment quantifies that gap on the split+delay countermeasure:

* **emulated** — stock page loads, transformed by
  :class:`~repro.defenses.combined.CombinedDefense` (exactly the
  paper's §3 emulation);
* **enforced** — the same page loads with a Stob controller installed
  on the server endpoint (split + delay acting on real transport
  decisions).  Enforced visit (site, sample) draws the same page and
  path as original visit (site, sample): both come from
  ``visit_seed_rng(seed, site, sample)`` through the one trial
  executor, so the gap compares like with like.

Reported per condition: k-FP accuracy, trace-shape statistics, and the
divergence between the two defended distributions (a classifier
trained on emulated traces tested on enforced ones — the realistic
deployment mismatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attacks.features.kfp import KfpFeatureExtractor
from repro.capture.dataset import Dataset
from repro.capture.sanitize import sanitize_dataset
from repro.defenses.combined import CombinedDefense
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import PageLoadTrial, run_trials
from repro.experiments.table2 import evaluate_dataset
from repro.ml.forest import RandomForest
from repro.ml.metrics import accuracy_score, mean_std
from repro.web.pageload import PageLoadConfig, collect_dataset


def collect_enforced_dataset(
    n_samples: int,
    config: Optional[PageLoadConfig] = None,
    seed: int = 0,
    workers: int = 1,
) -> Dataset:
    """Page loads with Stob split+delay enforced in the server stack:
    the visits of ``collect_dataset`` with the same arguments, stalled
    ones dropped."""
    return run_trials(
        PageLoadTrial(config or PageLoadConfig(), enforce=True), n_samples,
        seed=seed, workers=workers,
    )


@dataclass
class EnforcementResult:
    """Accuracies and shape statistics for the three conditions."""

    accuracy_original: tuple
    accuracy_emulated: tuple
    accuracy_enforced: tuple
    #: Train-on-emulated, test-on-enforced accuracy: how well the
    #: research emulation transfers to a real deployment.
    transfer_accuracy: float
    mean_packets_original: float
    mean_packets_emulated: float
    mean_packets_enforced: float
    mean_duration_original: float
    mean_duration_emulated: float
    mean_duration_enforced: float


def _shape_stats(dataset: Dataset) -> tuple:
    counts = [len(t) for _l, t in dataset]
    durations = [t.duration for _l, t in dataset]
    return float(np.mean(counts)), float(np.mean(durations))


def run_enforcement_gap(
    config: Optional[ExperimentConfig] = None,
    raw_dataset: Optional[Dataset] = None,
) -> EnforcementResult:
    """Measure the emulation-vs-enforcement gap."""
    config = config or ExperimentConfig()
    if raw_dataset is None:
        raw_dataset = collect_dataset(
            n_samples=config.n_samples, config=config.pageload,
            seed=config.seed, workers=config.workers,
        )
    original, _ = sanitize_dataset(raw_dataset, balance_to=config.balance_to)
    emulated = original.map(CombinedDefense(seed=config.seed).apply)

    enforced_raw = collect_enforced_dataset(
        n_samples=config.n_samples, config=config.pageload, seed=config.seed,
        workers=config.workers,
    )
    enforced, _ = sanitize_dataset(enforced_raw, balance_to=config.balance_to)

    extractor = KfpFeatureExtractor()
    acc_orig = mean_std(evaluate_dataset(original, config, extractor))
    acc_emul = mean_std(evaluate_dataset(emulated, config, extractor))
    acc_enfo = mean_std(evaluate_dataset(enforced, config, extractor))

    # Transfer: train on the emulated distribution, attack deployment.
    train_traces, train_y = emulated.to_arrays()
    test_traces, test_y = enforced.to_arrays()
    forest = RandomForest(
        n_estimators=config.n_estimators, random_state=config.seed
    )
    forest.fit(extractor.extract_many(train_traces), train_y)
    transfer = accuracy_score(
        test_y, forest.predict(extractor.extract_many(test_traces))
    )

    packets_o, duration_o = _shape_stats(original)
    packets_m, duration_m = _shape_stats(emulated)
    packets_e, duration_e = _shape_stats(enforced)
    return EnforcementResult(
        accuracy_original=acc_orig,
        accuracy_emulated=acc_emul,
        accuracy_enforced=acc_enfo,
        transfer_accuracy=transfer,
        mean_packets_original=packets_o,
        mean_packets_emulated=packets_m,
        mean_packets_enforced=packets_e,
        mean_duration_original=duration_o,
        mean_duration_emulated=duration_m,
        mean_duration_enforced=duration_e,
    )


def format_enforcement(result: EnforcementResult) -> str:
    def acc(pair):
        return f"{pair[0]:.3f} ± {pair[1]:.3f}"

    return "\n".join(
        [
            "Emulation vs enforcement (split+delay, k-FP closed world)",
            f"{'condition':<12} {'accuracy':>16} {'mean pkts':>10} "
            f"{'mean dur(s)':>12}",
            f"{'original':<12} {acc(result.accuracy_original):>16} "
            f"{result.mean_packets_original:>10.0f} "
            f"{result.mean_duration_original:>12.2f}",
            f"{'emulated':<12} {acc(result.accuracy_emulated):>16} "
            f"{result.mean_packets_emulated:>10.0f} "
            f"{result.mean_duration_emulated:>12.2f}",
            f"{'enforced':<12} {acc(result.accuracy_enforced):>16} "
            f"{result.mean_packets_enforced:>10.0f} "
            f"{result.mean_duration_enforced:>12.2f}",
            "",
            f"train-on-emulated / test-on-enforced accuracy: "
            f"{result.transfer_accuracy:.3f}",
            "(a gap between this and the enforced self-accuracy is the "
            "emulation error the paper warns about)",
        ]
    )
