"""Fold a cProfile run into per-layer self time and cross-layer calls.

A layer is a group of ``src/repro`` modules.  :data:`LAYERS` is the one
module -> layer table; ``test_perfbench.py`` fails when a module under
``src/repro`` matches no entry, so a new module must be mapped before
the benchmark can attribute its time.

Self time of code outside the repository (builtins, the standard
library, the benchmark itself) is charged to the repository layer that
called it, split over callers by cProfile's per-caller self time.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

#: Layer -> module paths relative to ``src/repro`` (no ``.py``).  A
#: directory entry ends with ``/`` and covers every module below it.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.loop": ("sim/simulator", "sim/events", "sim/process", "sim/rand",
                 "sim/errors", "sim/__init__"),
    "sim.fluid": ("sim/fluid", "sim/vecfluid"),
    "cluster": ("cluster/",),
    "runtime": ("runtime/",),
    "core.scheduler": ("core/scheduler/",),
    "core": ("core/",),
    "ds": ("ds/", "storage/", "compute/"),
    "autoscale": ("autoscale/",),
    "ft": ("ft/",),
    "apps": ("apps/", "experiments/"),
    "chaos": ("chaos/",),
    "obs": ("obs/", "trace", "metrics/"),
    "other": ("__init__", "__main__", "cli", "exec/", "hedge/", "units",
              "viz"),
}

#: Code outside ``src/repro`` that no repository frame called.
UNATTRIBUTED = "other"


def layer_of_module(rel: str) -> Optional[str]:
    """The layer of module *rel* (``"sim/fluid"``), or None if unmapped.

    The longest matching entry wins, so ``core/scheduler/`` beats
    ``core/``.
    """
    best, best_len = None, -1
    for layer, entries in LAYERS.items():
        for entry in entries:
            hit = rel.startswith(entry) if entry.endswith("/") \
                else rel == entry
            if hit and len(entry) > best_len:
                best, best_len = layer, len(entry)
    return best


def repo_modules(src_root: str) -> Iterable[str]:
    """Every module under *src_root* (``.../src/repro``) as ``a/b``."""
    for dirpath, _dirs, files in os.walk(src_root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, src_root)[:-3].replace(os.sep,
                                                                  "/")


class LayerFolder:
    """Maps cProfile function keys ``(file, line, name)`` to layers."""

    def __init__(self, src_root: str):
        self.prefix = os.path.realpath(src_root) + os.sep
        self._cache: Dict[str, Optional[str]] = {}

    def layer_of_file(self, filename: str) -> Optional[str]:
        """The layer of a repository file, None for any other code."""
        if filename not in self._cache:
            real = os.path.realpath(filename) if filename[:1] != "~" \
                else filename
            layer = None
            if real.startswith(self.prefix):
                rel = real[len(self.prefix):-3].replace(os.sep, "/")
                layer = layer_of_module(rel) or UNATTRIBUTED
            self._cache[filename] = layer
        return self._cache[filename]

    def fold(self, stats: dict) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` from ``pstats.Stats.stats``.

        ``calls`` counts calls into a layer's functions from a frame of
        another layer; a call from outside code counts for the layer the
        outside code's own time is charged to.
        """
        out = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
        shares: Dict[tuple, Dict[str, float]] = {}

        def share_of(func, active=()) -> Dict[str, float]:
            # Where func's self time goes: its own layer, or (outside
            # code) its callers' layers weighted by per-caller self time.
            if func in shares:
                return shares[func]
            layer = self.layer_of_file(func[0])
            if layer is not None:
                shares[func] = {layer: 1.0}
                return shares[func]
            callers = stats[func][4] if func in stats else {}
            total = sum(edge[2] for edge in callers.values())
            split: Dict[str, float] = {}
            seen = active + (func,)  # recursion: skip callers on the path
            for caller, edge in callers.items():
                if caller in seen or caller not in stats:
                    continue
                weight = edge[2] / total if total > 0 else 1 / len(callers)
                for lay, frac in share_of(caller, seen).items():
                    split[lay] = split.get(lay, 0.0) + weight * frac
            norm = sum(split.values())
            result = ({k: v / norm for k, v in split.items()} if norm > 0
                      else {UNATTRIBUTED: 1.0})
            shares[func] = result
            return result

        # Caller edges are (calls, primitive calls, self time, cumulative).
        for func, (_cc, _nc, tt, _ct, callers) in stats.items():
            for lay, frac in share_of(func).items():
                out[lay]["self_s"] += tt * frac
            callee = self.layer_of_file(func[0])
            if callee is None:
                continue
            for caller, edge in callers.items():
                for lay, frac in share_of(caller).items():
                    if lay != callee:
                        out[callee]["calls"] += edge[0] * frac
        for row in out.values():
            row["calls"] = int(round(row["calls"]))
        return out
