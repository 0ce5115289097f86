"""The parent side of ``python -m bench run``.

Each workload runs in its own fresh child process, one after another,
single-threaded (``workers=1`` and one BLAS thread).  ``setup_s`` is the
median of ``SETUP_STARTS`` further fresh interpreters that only import
the workload's modules and build its inputs: one start varies too much
on its own.  The parent writes one JSON file per workload, prints a
``workload metric value unit n`` table and, when one workload ran, the
result line ``{"correct", "attempted", "failed", "metrics"}`` last.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench import ROOT
from bench.metrics import END_TO_END, PER_LAYER

#: Default measuring time of one run, as in ``BENCHMARK.json``.
RUN_SECONDS = 20
DEFAULT_SEED = 2025
SETUP_STARTS = 5
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    """A child process exited non-zero or printed no result."""


def _child_command(subcommand: str, workload: str, seed: int, *extra: str) -> List[str]:
    return [sys.executable, "-m", "bench", subcommand,
            "--workload", workload, "--seed", str(seed), *extra]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _call(command: List[str], timeout: float) -> str:
    try:
        done = subprocess.run(command, cwd=ROOT, env=_child_env(), text=True,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(command[2:])} ran over {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise ChildFailed(f"{' '.join(command[2:])} exited {done.returncode}")
    return done.stdout


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter that builds the
    workload's inputs to its exit."""
    start = time.perf_counter()
    _call(_child_command("_setup", workload, seed), timeout=60.0)
    return time.perf_counter() - start


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = _call(
        _child_command("_child", workload, seed, "--seconds", str(seconds),
                       "--trace", str(int(trace))),
        timeout=CHILD_TIMEOUT,
    )
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} printed no result")
    return json.loads(lines[-1])


def _git_revision() -> Optional[str]:
    # Without this check git would report a repository enclosing the checkout.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_fingerprint() -> dict:
    import numpy

    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up timings plus one child; the full result record."""
    started = time.time()
    host = host_fingerprint()
    setups = [] if trace else [time_setup(workload, seed) for _ in range(SETUP_STARTS)]
    child = run_child(workload, seed, seconds, trace)
    values = child.pop("values")
    if setups:
        values["setup_s"] = [statistics.median(setups), len(setups)]
    declared = PER_LAYER if trace else END_TO_END
    consistent = child.pop("consistent")
    failed, attempted = child["failed"], child["attempted"]
    missing = [m.name for m in declared if m.name not in values]
    if missing:
        child["problems"].append(f"not measured: {', '.join(missing)}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": started,
        "metrics": {
            m.name: {"value": values[m.name][0], "unit": m.unit, "n": values[m.name][1]}
            for m in declared if m.name in values
        },
        "correct": failed == 0 and consistent and not missing,
        "failed_frac": failed / attempted if attempted else 1.0,
        "setup_starts_s": setups,
        **child,
        "host": host,
    }


def write_result(result: dict, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    mode = "trace" if result["trace"] else "e2e"
    stem = f"{result['workload']}.{mode}.s{result['seed']}"
    index = 0
    while (out / f"{stem}.{index:03d}.json").exists():
        index += 1
    path = out / f"{stem}.{index:03d}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def table(results: List[dict]) -> str:
    rows = [f"{'workload':<12} {'metric':<32} {'value':>14} {'unit':<16} {'n':>6}"]
    for result in results:
        for name, metric in result["metrics"].items():
            rows.append(f"{result['workload']:<12} {name:<32} {metric['value']:>14.6g} "
                        f"{metric['unit']:<16} {metric['n']:>6}")
        rows.append(f"{result['workload']:<12} {'failed_frac':<32} "
                    f"{result['failed_frac']:>14.6g} {'failed/attempted':<16} "
                    f"{result['attempted']:>6}")
    return "\n".join(rows)


def result_line(result: dict) -> str:
    """The one-line result: correctness and every metric with its unit."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    })


def main(workloads: List[str], seed: int, seconds: float, trace: bool, out: Path) -> int:
    results = []
    for workload in workloads:
        try:
            result = run_workload(workload, seed, seconds, trace)
        except ChildFailed as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        path = write_result(result, out)
        for problem in result["problems"]:
            print(f"bench: {workload}: {problem}", file=sys.stderr)
        print(f"bench: {workload} -> {path}", file=sys.stderr)
        results.append(result)
    print(table(results))
    if len(results) == 1:
        print(result_line(results[0]))
    complete = all(len(r["metrics"]) == len(PER_LAYER if trace else END_TO_END)
                   for r in results)
    return 0 if complete else 1
