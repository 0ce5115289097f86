"""``python -m bench compare`` and ``python -m bench check``.

``compare BASE_DIR CHANGE_DIR`` reads the result files two sets of runs
wrote (``run --out``) and applies the rule for measuring on a small
shared machine: at least ten runs a side, alternating sides; a gain
needs the change to
win at least nine tenths of the pairs and the medians to differ by more
than the parent's own quartile spread; a regression is a median worse
by more than the metric's bound in ``BENCHMARK.json``, and ``worse`` the
gain rule turned around; where the parent's spread is wider than the
bound the metric is unresolved, unless every change run beats every
parent run.  Every run must pass its output checks, the runs of a
workload must share seed and run length, and program counters and
output digests must be identical across all runs.

``check`` keeps ``BENCHMARK.json`` equal to what the runner emits.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench import ROOT
from bench.metrics import (
    END_TO_END,
    OBS_COUNTERS,
    PER_LAYER,
    min_samples,
    percentile_of,
    quartiles,
)

BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE = Path(__file__).resolve().parent / "baseline"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Per-layer counts that describe simulated behaviour, not host work.
BEHAVIOUR = {name for name, _unit in OBS_COUNTERS} | {"tcp.packets_per_segment"}


def load_runs(directory: Path) -> List[dict]:
    """Every result file in ``directory``, oldest first."""
    runs = [json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))]
    return sorted(runs, key=lambda run: run["started"])


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, dict]:
    """Classify one metric on one workload: gain, regression, worse,
    unresolved or same.  Runs pair up in the order they were made.

    ``worse`` is the gain rule turned around: within the bound, but the
    change loses nine tenths of the pairs and its median moved by more
    than the parent's quartile spread.  The bound holds the spread over
    seeds and over hours of a shared host; runs paired on one seed are
    much tighter, so this catches a slowdown well inside the bound."""
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0

    def gain(c: float, b: float) -> float:
        return sign * (c - b)

    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if gain(c, b) > 0)
    losses = sum(1 for b, c in pairs if gain(c, b) < 0)
    worse = -gain(c_med, b_med) / abs(b_med)
    spread = (b3 - b1) / abs(b_med)
    if pairs and wins >= 0.9 * len(pairs) and gain(c_med, b_med) > b3 - b1:
        label = "gain"
    elif worse > bound:
        label = "regression"
    elif pairs and losses >= 0.9 * len(pairs) and -gain(c_med, b_med) > b3 - b1:
        label = "worse"
    elif spread > bound and not all(gain(c, b) > 0 for c in change for b in base):
        label = "unresolved"
    else:
        label = "same"
    return label, {
        "base": (b1, b_med, b3), "change": (c1, c_med, c3), "wins": wins,
        "pairs": len(pairs), "worse": worse, "spread": spread,
    }


def _bounds() -> Dict[str, float]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _by_workload(runs: List[dict], trace: bool) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in runs:
        if run["trace"] == trace:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _count_problems(base: List[dict], change: List[dict]) -> Tuple[List[str], List[str]]:
    """(problems, notes) from the traced runs' counts."""
    problems, notes = [], []
    base_by, change_by = _by_workload(base, True), _by_workload(change, True)
    for workload in sorted(set(base_by) | set(change_by)):
        sides = {"base": base_by.get(workload, []), "change": change_by.get(workload, [])}
        seen: Dict[str, Dict[str, set]] = {"base": {}, "change": {}}
        for side, runs in sides.items():
            for run in runs:
                for name, metric in run["metrics"].items():
                    if metric["unit"] not in ("s", "x"):
                        seen[side].setdefault(name, set()).add(metric["value"])
        for side in sides:
            for name, values in sorted(seen[side].items()):
                if len(values) > 1:
                    problems.append(f"{workload}: {name} differs between {side} runs: "
                                    f"{sorted(values)}")
        for name in sorted(set(seen["base"]) & set(seen["change"])):
            if seen["base"][name] != seen["change"][name]:
                line = (f"{workload}: {name} {sorted(seen['base'][name])} -> "
                        f"{sorted(seen['change'][name])}")
                (problems if name in BEHAVIOUR else notes).append(line)
    return problems, notes


def _setting_problems(runs: List[dict]) -> List[str]:
    """Runs of one workload compared with each other must share the seed
    and the run length."""
    settings: Dict[Tuple[str, bool], set] = {}
    for run in runs:
        settings.setdefault((run["workload"], run["trace"]), set()).add(
            (run["seed"], run["seconds"]))
    return [f"{w}{' traced' if t else ''}: runs differ in (seed, seconds): {sorted(s)}"
            for (w, t), s in sorted(settings.items()) if len(s) > 1]


def _output_problems(runs: List[dict]) -> List[str]:
    problems = [f"{run['workload']} seed {run['seed']}: {run['failed']} of "
                f"{run['attempted']} output checks failed"
                for run in runs if not run["correct"]]
    digests: Dict[Tuple[str, int], set] = {}
    for run in runs:
        digests.setdefault((run["workload"], run["seed"]), set()).add(run["outputs_sha256"])
    return problems + [f"{w} seed {s}: outputs differ: {sorted(d)}"
                       for (w, s), d in sorted(digests.items()) if len(d) > 1]


def compare(base_dir: Path, change_dir: Path) -> int:
    base, change = load_runs(base_dir), load_runs(change_dir)
    bounds = _bounds()
    base_by, change_by = _by_workload(base, False), _by_workload(change, False)
    print(f"{'workload':<12} {'metric':<16} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'worse':>7} {'wins':>6} {'bound':>6}  verdict")
    tally: Dict[str, int] = {}
    for workload in sorted(set(base_by) & set(change_by)):
        for metric in END_TO_END:
            # A run in which no op completed has no timings; its failed
            # checks are reported below.
            b = [run["metrics"][metric.name]["value"] for run in base_by[workload]
                 if metric.name in run["metrics"]]
            c = [run["metrics"][metric.name]["value"] for run in change_by[workload]
                 if metric.name in run["metrics"]]
            if not b or not c:
                print(f"{workload:<12} {metric.name:<16} (not measured on one side)")
                continue
            label, stats = verdict(b, c, metric.better, bounds[metric.name])
            tally[label] = tally.get(label, 0) + 1
            print(f"{workload:<12} {metric.name:<16} {_quart(stats['base']):>32} "
                  f"{_quart(stats['change']):>32} {stats['worse']:>+7.1%} "
                  f"{stats['wins']:>3}/{stats['pairs']:<2} {bounds[metric.name]:>6.0%}  "
                  f"{label}")
    for workload in sorted(set(base_by) ^ set(change_by)):
        print(f"{workload:<12} (untraced runs on one side only)")
    problems, notes = _count_problems(base, change)
    problems += _setting_problems(base + change) + _output_problems(base + change)
    for note in notes:
        print(f"count changed: {note}")
    for problem in problems:
        print(f"MISMATCH: {problem}")
    verdicts = ", ".join(f"{k} {v}" for k, v in sorted(tally.items())) or "no timings"
    print(f"summary: {verdicts}; settings, outputs and program counters "
          f"{'differ' if problems else 'identical'}")
    return 1 if problems or tally.get("regression") or tally.get("worse") else 0


def _quart(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def _check_metrics(kind: str, entries: list, declared: Sequence, bounded: bool,
                   limit: int) -> List[str]:
    problems = []
    keys = {"name", "unit", "better"} | ({"bound"} if bounded else set())
    if not 1 <= len(entries) <= limit:
        problems.append(f"{kind}: {len(entries)} metrics, allowed 1 to {limit}")
    for entry in entries:
        if set(entry) != keys:
            problems.append(f"{kind}: {entry} must have exactly the keys {sorted(keys)}")
            continue
        if not NAME.match(entry["name"]) or not UNIT.match(entry["unit"]):
            problems.append(f"{kind}: bad name or unit in {entry}")
        if entry["better"] not in ("higher", "lower"):
            problems.append(f"{kind}: {entry['name']}: better must be higher or lower")
        if bounded and not 0 < entry["bound"] <= 0.25:
            problems.append(f"{kind}: {entry['name']}: bound must be in (0, 0.25]")
    names = [entry.get("name") for entry in entries]
    if len(set(names)) != len(names):
        problems.append(f"{kind}: duplicate metric names")
    got = {(e.get("name"), e.get("unit"), e.get("better")) for e in entries}
    want = {tuple(m) for m in declared}
    for name, unit, better in sorted(want - got):
        problems.append(f"{kind}: the runner emits {name} ({unit}, {better}) "
                        "but it is not declared so")
    for name, unit, better in sorted(got - want, key=str):
        problems.append(f"{kind}: {name} ({unit}, {better}) is declared but not emitted")
    return problems


def check(benchmark: Optional[Path] = None, baseline: Optional[Path] = None) -> int:
    """Check ``BENCHMARK.json`` against the runner's declarations and the
    recorded baseline runs; print each mismatch; 1 if there is any."""
    from bench.run import RUN_SECONDS
    from bench.workloads import WORKLOADS

    text = (benchmark or BENCHMARK).read_text()
    spec = json.loads(text)
    problems: List[str] = []
    if len(text.encode()) > 64 * 1024:
        problems.append("the file is larger than 64 KiB")
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys are {sorted(spec)}, expected {sorted(keys)}")
    command = spec.get("command", [])
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in command)):
        problems.append("command must be a list of 1 to 32 strings of <= 200 characters")
    if spec.get("paths") != ["bench"]:
        problems.append(f"paths is {spec.get('paths')}, expected ['bench']")
    if spec.get("run_seconds") != RUN_SECONDS:
        problems.append(f"run_seconds is {spec.get('run_seconds')}, the runner's "
                        f"default is {RUN_SECONDS}")
    workloads = spec.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        problems.append(f"{len(workloads)} workloads, allowed 2 to 8")
    for entry in workloads:
        if set(entry) != {"name", "why"} or "\n" in entry["why"] or len(entry["why"]) > 200:
            problems.append(f"workload {entry.get('name')}: needs a name and a one-line why")
    if [w.get("name") for w in workloads] != list(WORKLOADS):
        problems.append(f"workloads {[w.get('name') for w in workloads]} != runner's "
                        f"{list(WORKLOADS)}")
    e2e = spec.get("end_to_end", [])
    problems += _check_metrics("end_to_end", e2e, END_TO_END, True, 16)
    problems += _check_metrics("per_layer", spec.get("per_layer", []), PER_LAYER, False, 128)
    bounds = {e.get("name"): e.get("bound", 0) for e in e2e}
    if bounds and bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    problems += _check_baseline(baseline or BASELINE)
    for problem in problems:
        print(f"check: {problem}")
    print(f"check: {'FAILED' if problems else 'ok'}: {len(problems)} problem(s)")
    return 1 if problems else 0


def _check_baseline(directory: Path) -> List[str]:
    """Recorded runs emit exactly the declared metrics, and every
    percentile has enough samples beyond it."""
    problems = []
    for path in sorted(directory.rglob("*.json")):
        run = json.loads(path.read_text())
        declared = PER_LAYER if run["trace"] else END_TO_END
        if set(run["metrics"]) != {m.name for m in declared}:
            problems.append(f"{path.name}: emitted metrics differ from the declared ones")
        for name, metric in run["metrics"].items():
            q = percentile_of(name)
            if q and metric["n"] < min_samples(q):
                problems.append(f"{path.name}: {name} from {metric['n']} samples, "
                                f"p{q:g} needs {min_samples(q)}")
    return problems
