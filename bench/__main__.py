"""Command line: ``python -m bench {run,compare,check}``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from bench import ROOT, SRC
from bench.run import DEFAULT_SEED, RUN_SECONDS


def _parser() -> argparse.ArgumentParser:
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", choices=sorted(WORKLOADS),
                     help="one workload (default: all four, one after another)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="measuring time of an untraced run")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="make the per-layer traced run instead")
    run.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                     help="directory for the per-workload JSON results")

    compare = commands.add_parser("compare", help="compare two directories of results")
    compare.add_argument("base", type=Path)
    compare.add_argument("change", type=Path)

    commands.add_parser("check", help="check BENCHMARK.json against the runner")

    for name in ("_child", "_setup"):
        internal = commands.add_parser(name)
        internal.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        internal.add_argument("--seed", type=int, required=True)
        internal.add_argument("--seconds", type=float, default=RUN_SECONDS)
        internal.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        from bench import run
        from bench.workloads import WORKLOADS

        names = [args.workload] if args.workload else list(WORKLOADS)
        return run.main(names, args.seed, args.seconds, bool(args.trace), args.out)
    if args.command == "compare":
        from bench import compare

        return compare.compare(args.base, args.change)
    if args.command == "check":
        from bench import compare

        return compare.check()

    import repro
    from bench.workloads import WORKLOADS

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"bench: repro comes from {repro.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.command == "_child":
        from bench import child

        outcome = child.trace(workload) if args.trace else child.measure(workload, args.seconds)
        print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
