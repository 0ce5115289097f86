"""The repository benchmark: four fixed workloads, end to end and per layer.

Run from the repository root::

    python -m bench run [--workload W] [--seed S] [--seconds N] [--trace] [--out DIR]
    python -m bench compare BASE_DIR CHANGE_DIR
    python -m bench check

See ``bench/README.md`` for the workloads, the metrics and how to read a
comparison.  The package imports ``repro`` from this checkout's ``src/``
directory, so it needs no install and no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
