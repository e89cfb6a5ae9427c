"""Module -> layer map and the cProfile self-time split by layer.

A layer is a group of ``repro`` source files.  Self time of a function
in one of those files is charged to its layer.  Self time of a built-in,
stdlib or numpy function is charged to whoever called it, split by the
time each caller spent in it, and walked up through non-``repro``
callers until a ``repro`` frame is reached.  A recursive path among
non-``repro`` frames is cut at its back-edge and the remaining callers'
weights are renormalised, so recursion never leaks time to ``other``.
A frame that is reached from no ``repro`` code at all (the benchmark's
own loop) counts as ``other``.
"""

from __future__ import annotations

import os
import pstats

#: Layer names in report order.
LAYERS = (
    "planner", "costs", "experiments.stepmodel", "simulator.collapse",
    "simulator.backends", "simulator.predictor", "simulator.engine",
    "mpi", "collectives", "network", "core", "algorithms", "blocks",
    "payloads", "cluster", "other",
)

#: Path prefix under ``repro/`` -> layer.  Longest prefix wins.  Every
#: subpackage and top-level module is listed, those that belong to no
#: measured layer explicitly as ``other``, so a new subpackage shows up
#: as unmapped in the tests instead of silently landing in ``other``.
MODULE_LAYERS = {
    "planner/": "planner",
    "costs/": "costs",
    "experiments/stepmodel.py": "experiments.stepmodel",
    "experiments/": "other",
    "simulator/collapse.py": "simulator.collapse",
    "simulator/backends.py": "simulator.backends",
    "simulator/predictor.py": "simulator.predictor",
    "simulator/engine.py": "simulator.engine",
    "simulator/events.py": "simulator.engine",
    "simulator/requests.py": "simulator.engine",
    "simulator/": "other",
    "mpi/": "mpi",
    "collectives/": "collectives",
    "network/": "network",
    "core/": "core",
    "algorithms/": "algorithms",
    "blocks/": "blocks",
    "payloads.py": "payloads",
    "cluster/": "cluster",
    "factorization/": "other",
    "faults/": "other",
    "hetero/": "other",
    "models/": "other",
    "platforms/": "other",
    "util/": "other",
    "verify/": "other",
    "__init__.py": "other",
    "__main__.py": "other",
    "cli.py": "other",
    "errors.py": "other",
    "metrics.py": "other",
}

_PREFIXES = sorted(MODULE_LAYERS, key=len, reverse=True)


def package_root() -> str:
    """Directory of the imported ``repro`` package, with a trailing
    separator."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def repro_relpath(filename: str, root: str) -> str | None:
    """``filename`` relative to the package ``root``, or None when the
    file is not part of it."""
    if not filename.startswith(root):
        return None
    return filename[len(root):].replace(os.sep, "/")


def layer_of(relpath: str) -> str | None:
    """The layer of a file under ``repro/`` (None if unmapped)."""
    for prefix in _PREFIXES:
        if relpath.startswith(prefix):
            return MODULE_LAYERS[prefix]
    return None


def layer_self_times(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer from a cProfile run (every layer keyed)."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    root = package_root()
    owner: dict[tuple, dict[str, float]] = {}

    def shares(func, stack):
        """Fraction of ``func``'s self time each layer is charged with
        (None when every path up from ``func`` re-enters ``stack``), and
        the frames of ``stack`` whose back-edges were left out on the
        way.  A result is memoised only once no such cycle is open."""
        if func in owner:
            return owner[func], set()
        rel = repro_relpath(func[0], root)
        if rel is not None:
            owner[func] = {layer_of(rel) or "other": 1.0}
            return owner[func], set()
        if func in stack:
            return None, {func}  # a back-edge: leave it out
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        if not callers:
            owner[func] = {"other": 1.0}  # reached from no repro code
            return owner[func], set()
        stack.add(func)
        parts, cut = [], set()
        for caller, c in callers.items():
            sub, open_ = shares(caller, stack)
            cut |= open_
            if sub is not None:
                parts.append((c[2], sub))
        stack.discard(func)
        cut.discard(func)
        res = None
        if parts:
            weight = sum(w for w, _ in parts)
            res = {}
            for w, sub in parts:
                w = w / weight if weight > 0 else 1.0 / len(parts)
                for layer, f in sub.items():
                    res[layer] = res.get(layer, 0.0) + w * f
        if cut:
            return res, cut
        owner[func] = res or {"other": 1.0}
        return owner[func], cut

    out = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for layer, f in (shares(func, set())[0] or {"other": 1.0}).items():
            out[layer] += tt * f
    return out


def call_count(stats: pstats.Stats, relpath: str, names) -> int:
    """Primitive calls of the functions ``names`` defined in ``relpath``
    (``names`` may be a predicate on the function name)."""
    match = names if callable(names) else (lambda name: name in names)
    root = package_root()
    total = 0
    for (filename, _line, name), (cc, *_rest) in stats.stats.items():
        if repro_relpath(filename, root) == relpath and match(name):
            total += cc
    return total
