"""Tests of the benchmark harness itself.

Run from the repository root with ``python -m pytest bench -q``; they
are outside the main suite's ``testpaths``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from pathlib import Path

import pytest

from bench import SRC
from bench.child import MIN_OPS, measure, trace
from bench.compare import BENCHMARK, check, compare, verdict
from bench.layers import LAYERS, group_profile, layer_of, module_of
from bench.metrics import END_TO_END, PER_LAYER, percentile, samples_beyond
from bench.workloads import BulkSweep, Enforced, Pageload, Table2Cold

#: The cheapest site to load, so the looped small inputs stay quick.
SITE = "whatsapp.net"


def test_percentile_refuses_p90_with_fewer_than_ten_samples_beyond():
    assert samples_beyond(90, 90) == 9
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(90)), 90)
    assert samples_beyond(100, 90) == 10
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert MIN_OPS >= 92


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize("change, better, bound, expected", [
    ([v * 0.8 for v in BASE], "lower", 0.05, "gain"),
    (list(BASE), "lower", 0.05, "same"),
    (BASE[5:] + BASE[:5], "lower", 0.05, "same"),
    ([v * 1.02 for v in BASE], "lower", 0.05, "worse"),
    ([v * 0.98 for v in BASE], "higher", 0.05, "worse"),
    ([v * 1.10 for v in BASE], "lower", 0.05, "regression"),
    ([v * 0.90 for v in BASE], "higher", 0.05, "regression"),
    ([v * 1.20 for v in BASE], "higher", 0.05, "gain"),
])
def test_verdict(change, better, bound, expected):
    assert verdict(BASE, change, better, bound)[0] == expected


def test_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    slightly_better = [v - 2.0 for v in wide[::-1]]
    label, stats = verdict(wide, slightly_better, "lower", 0.05)
    assert stats["spread"] > 0.05
    assert label == "unresolved"
    # Every change run beating every parent run is resolved even so.
    assert verdict(wide, [60.0] * 10, "lower", 0.05)[0] == "gain"


def test_a_slowdown_inside_the_bound_is_worse_only_when_consistent():
    # 3% slower than the parent on every pair: inside a 10% bound, but
    # far beyond the parent's own spread.
    assert verdict(BASE, [v * 1.03 for v in BASE], "lower", 0.10)[0] == "worse"
    # The same shift of the median, but the change wins some pairs.
    mixed = [v * 1.03 for v in BASE[:8]] + [v * 0.95 for v in BASE[8:]]
    assert verdict(BASE, mixed, "lower", 0.10)[0] == "same"


def _run_file(directory: Path, index: int, workload: str, value: float,
              digest: str = "d1", trace: bool = False, calls: int = 7,
              failed: int = 0, seed: int = 1) -> None:
    declared = PER_LAYER if trace else END_TO_END
    metrics = {m.name: {"value": calls if m.unit == "count" else value,
                        "unit": m.unit, "n": 100} for m in declared}
    run = {"workload": workload, "seed": seed, "seconds": 20.0, "trace": trace,
           "started": float(index),
           "metrics": metrics, "outputs_sha256": digest, "correct": not failed,
           "attempted": 100, "failed": failed}
    directory.mkdir(exist_ok=True)
    (directory / f"{workload}.{index:03d}.json").write_text(json.dumps(run))


def test_compare_on_run_files(tmp_path, capsys):
    base, same, slower = tmp_path / "base", tmp_path / "same", tmp_path / "slower"
    for i, v in enumerate(BASE):
        _run_file(base, i, "pageload", v)
        _run_file(same, 100 + i, "pageload", v)
        _run_file(slower, 100 + i, "pageload", v * 1.5)
    assert compare(base, same) == 0
    assert "same 6" in capsys.readouterr().out
    assert compare(base, slower) == 1
    assert "regression" in capsys.readouterr().out


def test_compare_refuses_runs_of_different_seeds(tmp_path, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    for i, v in enumerate(BASE):
        _run_file(base, i, "pageload", v, seed=2025)
        _run_file(change, 100 + i, "pageload", v, seed=7)
    assert compare(base, change) == 1
    assert "pageload: runs differ in (seed, seconds)" in capsys.readouterr().out


def test_compare_requires_correct_identical_outputs_and_program_counters(tmp_path, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    _run_file(base, 0, "pageload", 1.0, digest="d1")
    _run_file(change, 1, "pageload", 1.0, digest="d2")
    assert compare(base, change) == 1
    assert "outputs differ" in capsys.readouterr().out

    failing = tmp_path / "failing"
    _run_file(failing, 2, "pageload", 1.0, failed=3)
    assert compare(base, failing) == 1
    assert "3 of 100 output checks failed" in capsys.readouterr().out

    base, change = tmp_path / "tbase", tmp_path / "tchange"
    _run_file(base, 0, "pageload", 1.0, trace=True, calls=7)
    _run_file(change, 1, "pageload", 1.0, trace=True, calls=8)
    assert compare(base, change) == 1
    out = capsys.readouterr().out
    assert "MISMATCH: pageload: tcp.segments_sent" in out
    assert "count changed: pageload: layer.stack.tcp.calls [7] -> [8]" in out


def test_check_accepts_the_benchmark_and_refuses_drift(tmp_path):
    assert check() == 0
    spec = json.loads(BENCHMARK.read_text())
    spec["end_to_end"] = spec["end_to_end"][:-1]
    spec["per_layer"][0]["name"] = "bad name"
    drifted = tmp_path / "BENCHMARK.json"
    drifted.write_text(json.dumps(spec))
    no_baseline = tmp_path / "baseline"
    no_baseline.mkdir()
    assert check(drifted, no_baseline) == 1


def test_a_stalled_visit_counts_as_failed():
    from repro.web.pageload import PageLoadConfig

    workload = Pageload(1, samples=1, sites=[SITE], config=PageLoadConfig(max_duration=0.05))
    outcome = measure(workload, seconds=0)
    assert outcome["attempted"] >= MIN_OPS
    assert outcome["failed"] == outcome["attempted"]
    assert "completed=False" in outcome["problems"][0]


class _Raising(Pageload):
    def run_op(self, op, tally):
        raise RuntimeError("boom")


def test_a_run_in_which_every_op_raises_reports_its_failures():
    outcome = measure(_Raising(1, samples=1, sites=[SITE]), seconds=0)
    assert outcome["attempted"] == outcome["failed"] == 1
    assert "boom" in outcome["problems"][0]
    assert set(outcome["values"]) == {"peak_rss_mb"}


def _small(name: str):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.figure3 import Figure3Config

    return {
        "pageload": lambda: Pageload(1, samples=1, sites=[SITE]),
        "enforced": lambda: Enforced(1, samples=2, sites=[SITE]),
        "bulk-sweep": lambda: BulkSweep(1, Figure3Config(
            alphas=(0, 100), warmup=0.0005, measure=0.0005)),
        "table2-cold": lambda: Table2Cold(1, ExperimentConfig(
            n_samples=11, balance_to=7, n_folds=2, n_estimators=2, seed=1)),
    }[name]()


@pytest.mark.parametrize("name", ["pageload", "enforced", "bulk-sweep", "table2-cold"])
def test_each_workload_emits_every_declared_metric(name):
    untraced = measure(_small(name), seconds=0)
    assert set(untraced["values"]) | {"setup_s"} == {m.name for m in END_TO_END}
    assert all(value > 0 for value, _n in untraced["values"].values())
    json.dumps(untraced)
    if name == "bulk-sweep":
        assert set(untraced["outputs"]) == {"alpha=0", "alpha=100"}
        assert untraced["outputs"]["alpha=0"]["goodput_gbps"] > 0
    traced = trace(_small(name))
    assert set(traced["values"]) == {m.name for m in PER_LAYER}
    assert traced["consistent"]
    assert traced["values"]["stage.collect.calls"][0] >= 1


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = [module_of(str(path)) for path in (SRC / "repro").rglob("*.py")]
    assert modules and None not in modules
    for module in modules:
        matches = [layer for layer, prefixes in LAYERS.items()
                   if any(module == p or module.startswith(p + ".") for p in prefixes)]
        assert len(matches) <= 1, (module, matches)
        assert layer_of(module) == (matches[0] if matches else "other")
    assert {layer_of(m) for m in modules} == set(LAYERS) - {"builtins"}


def test_profile_grouping_counts_builtins_and_repro_layers():
    from repro.stack.intervals import RangeSet

    profiler = cProfile.Profile()
    profiler.enable()
    RangeSet().add(0, 10)
    max(1, 2)
    profiler.disable()
    grouped = group_profile(pstats.Stats(profiler).stats)
    assert grouped["stack.intervals"][0] >= 1
    assert grouped["builtins"][0] >= 1
    assert set(grouped) == set(LAYERS)
