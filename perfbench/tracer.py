"""Outside-in span tracing of gateqsl, installed from the benchmark's files.

Every public function defined in a ``gateqsl`` module is wrapped, and so
is every ``numpy.linalg`` function, recorded only when gateqsl code calls
it.  A wrapper replaces the original in every gateqsl module namespace
that holds it (the modules import names with ``from .linalg import ...``,
so patching the defining module alone would miss most calls).

Each call becomes a span (name, start, end, parent, operation id) kept in
flat arrays in memory; :meth:`Tracer.reduce` turns them into self times,
inclusive times and call counts.  A function that the program no longer
has simply never records a span and reads zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

import numpy as np

# One layer per gateqsl module, named without its leading underscore
# (``kernels`` is ``gateqsl._kernels``), plus ``lapack`` for numpy.linalg.
LAYERS = ("cli", "harness", "catalog", "minimal_time", "linalg", "kernels", "spectrum",
          "bounds", "lapack")

# Results read at the span boundary: name -> function of the result.
PROBES = {
    "minimal_time.enumerate_rotations": lambda res: len(res.rotations),
    "minimal_time.verify_dominance": lambda res: res.n,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.probed: dict[int, float] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def _wrap(self, fn, name: str, from_gateqsl_only: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        clock = time.perf_counter
        stack, starts, ends = self.stack, self.start, self.end
        parents, names, ops, probed = self.parent, self.name, self.op, self.probed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if from_gateqsl_only and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("gateqsl"):
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if probe is not None:
                probed[idx] = probe(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap gateqsl's public functions and numpy.linalg, everywhere
        a gateqsl module namespace holds them."""
        import gateqsl

        modules = [gateqsl] + [importlib.import_module(f"gateqsl.{m.name}")
                               for m in pkgutil.iter_modules(gateqsl.__path__)]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1].lstrip("_")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for attr in np.linalg.__all__:
            obj = getattr(np.linalg, attr)
            if callable(obj) and not inspect.isclass(obj):
                wrappers[id(obj)] = (obj, self._wrap(obj, f"lapack.{attr}", True))
        for ns in modules + [np.linalg]:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    # ---- reduction -------------------------------------------------------

    def reduce(self) -> dict:
        """Per-name calls and inclusive seconds, per-layer calls and self
        seconds, the root spans' total, and per-span name, duration and
        parent name for finer queries."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        k = len(self.names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        selft = dur - child
        # spans of a module outside LAYERS land in one extra bin
        layers = [n.split(".", 1)[0] for n in self.names]
        layer_ids = np.array([LAYERS.index(x) if x in LAYERS else len(LAYERS) for x in layers],
                             dtype=np.int64)
        span_layer = layer_ids[name]
        by_name = {
            "calls": np.bincount(name, minlength=k),
            "incl": np.bincount(name, weights=dur, minlength=k),
        }
        name_ids = {n: i for i, n in enumerate(self.names)}
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        return {
            "name_ids": name_ids,
            "calls": {n: int(by_name["calls"][i]) for n, i in name_ids.items()},
            "incl_s": {n: float(by_name["incl"][i]) for n, i in name_ids.items()},
            "layer_self_s": dict(zip(LAYERS, np.bincount(span_layer, weights=selft,
                                                         minlength=len(LAYERS) + 1))),
            "layer_calls": dict(zip(LAYERS, np.bincount(span_layer,
                                                        minlength=len(LAYERS) + 1))),
            "root_s": float(dur[~nested].sum()),
            "spans": int(dur.size),
            "name": name,
            "dur": dur,
            "parent_name": parent_name,
        }
