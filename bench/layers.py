"""Group a cProfile run by ``repro`` module into the benchmark's layers.

Every ``src/repro`` module belongs to exactly one layer: the first
layer whose module prefix it falls under, else ``other``.  Built-in
functions (cProfile's ``~`` entries: ``max``, ``list.append``, numpy
ufunc calls) form ``builtins``; code outside ``src/repro`` (numpy's
Python parts, the standard library, this benchmark) is ``other``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

from bench import SRC

#: Layer name -> the ``repro`` module prefixes it covers.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "simnet.engine": ("repro.simnet.engine",),
    "simnet.entities": ("repro.simnet.entities",),
    "stack.tcp": ("repro.stack.tcp",),
    "stack.buffers": ("repro.stack.buffers",),
    "stack.packet": ("repro.stack.packet",),
    "stack.qdisc": ("repro.stack.qdisc",),
    "stack.nic": ("repro.stack.nic",),
    "stack.pacing": ("repro.stack.pacing",),
    "stack.tso": ("repro.stack.tso",),
    "stack.intervals": ("repro.stack.intervals",),
    "stack.host": ("repro.stack.host",),
    "stack.cc": ("repro.stack.cc",),
    "stob": ("repro.stob",),
    "capture.trace": ("repro.capture.trace",),
    "web": ("repro.web",),
    "defenses": ("repro.defenses",),
    "attacks.features": ("repro.attacks.features",),
    "ml": ("repro.ml",),
    "builtins": (),
    "other": (),
}


def module_of(filename: str) -> Optional[str]:
    """Dotted ``repro`` module name of a source file, or None when the
    file is not under ``src/repro``."""
    path = Path(filename).resolve()
    try:
        relative = path.relative_to(SRC)
    except ValueError:
        return None
    if relative.parts[0] != "repro" or path.suffix != ".py":
        return None
    parts = relative.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def layer_of(module: Optional[str]) -> str:
    """The layer a ``repro`` module belongs to (``other`` for None)."""
    if module is not None:
        for layer, prefixes in LAYERS.items():
            for prefix in prefixes:
                if module == prefix or module.startswith(prefix + "."):
                    return layer
    return "other"


def group_profile(stats: dict) -> Dict[str, Tuple[int, float]]:
    """``{layer: (calls, self seconds)}`` from ``pstats.Stats(...).stats``.

    Calls are cProfile's total call counts (recursive calls included),
    self time its ``tottime``; both sum over the layer's functions.
    """
    totals = {layer: [0, 0.0] for layer in LAYERS}
    layers_by_file: Dict[str, str] = {}
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) in stats.items():
        layer = layers_by_file.get(filename)
        if layer is None:
            layer = "builtins" if filename == "~" else layer_of(module_of(filename))
            layers_by_file[filename] = layer
        totals[layer][0] += calls
        totals[layer][1] += self_s
    return {layer: (calls, self_s) for layer, (calls, self_s) in totals.items()}
