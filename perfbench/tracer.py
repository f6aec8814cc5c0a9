"""Outside-in tracing of powersumkit.

The tracer wraps the public functions and methods of every layer module.
Each wrapper counts calls, errors and self time (its duration minus the
time covered by wrapped calls it made) and keeps a span (id, name, start,
end, parent id, task id) in memory up to a cap; the rest are counted as
dropped.  Two work counts are taken at the same boundaries: the symfuncs
prefix DP steps (len(vars) * M per call) and the coefficient products of
each Poly * Poly.

Wrapping a module attribute does not reach references captured at import
time, so every module of the package, and every dict in one (such as
cli._FAMILIES and verify.SUITES), is rebound to the wrappers as well.
"""

from __future__ import annotations

import importlib
import itertools
import time
import types
from enum import Enum

PACKAGE = "powersumkit"
LAYERS = ("cli", "verify", "powersums", "combinatorics", "zeta", "symfuncs",
          "sequences", "exact")
_MODULES = LAYERS + ("goldens",)
_WRAPPED_DUNDERS = {"__init__", "__call__", "__add__", "__sub__", "__mul__",
                    "__rmul__", "__neg__"}
_PREFIX_DPS = {"symfuncs.elementary_prefix", "symfuncs.complete_prefix"}
_POLY_MUL = "exact.Poly.__mul__"


def package_modules() -> list[types.ModuleType]:
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{name}") for name in _MODULES]


def module_caches(modules) -> list:
    """Every distinct module-level callable exposing cache_info()."""
    found = {}
    for mod in modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                found.setdefault(id(value), value)
    return list(found.values())


def cache_totals(caches) -> dict:
    infos = [c.cache_info() for c in caches]
    return {"entries": sum(i.currsize for i in infos),
            "hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos)}


def _public_names(mod) -> list[str]:
    """Names without a leading underscore that the module itself defines."""
    return [name for name, value in vars(mod).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == mod.__name__]


class Tracer:
    """Wraps the layers of powersumkit in place; `install` is idempotent."""

    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.modules = package_modules()
        self.caches = module_caches(self.modules)
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, errors, total_s]
        self.counts = [0, 0]  # prefix DP steps, Poly coefficient products
        self.spans: list[tuple] = []
        self.dropped = 0
        self.task_id = 0
        self._stack: list[list] = []  # [child time, span id] per active call
        self._next_id = itertools.count().__next__
        self._installed = False

    def reset(self) -> None:
        """Zero every count in place (the wrappers hold references)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0, 0.0]
        self.counts[:] = [0, 0]
        self.spans.clear()
        self._stack.clear()
        self.dropped = 0

    def export(self) -> dict:
        return {"funcs": {n: s for n, s in self.stats.items() if s[0]},
                "counts": list(self.counts),
                "caches": cache_totals(self.caches),
                "spans": self.spans, "dropped": self.dropped}

    def counters(self) -> dict:
        """The counts that must repeat exactly for the same inputs."""
        return {"calls": {n: s[0] for n, s in self.stats.items() if s[0]},
                "dp_steps": self.counts[0], "poly_coeff_products": self.counts[1]}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in _public_names(mod):
                obj = getattr(mod, name)
                if isinstance(obj, type):
                    if not issubclass(obj, (Enum, BaseException)):
                        self._wrap_class(layer, obj, wrappers)
                elif callable(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
        verify = importlib.import_module(f"{PACKAGE}.verify")
        for name, fn in verify.SUITES.items():
            wrappers[id(fn)] = self._wrap(fn, f"verify.suite.{name}")
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    _rebind_dict(value, wrappers)

    def _wrap_class(self, layer: str, cls: type, wrappers: dict) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _WRAPPED_DUNDERS:
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fn.__qualname__}")
                setattr(cls, name, type(attr)(wrappers[id(fn)]))
            elif isinstance(attr, types.FunctionType):
                if id(attr) not in wrappers:
                    wrappers[id(attr)] = self._wrap(attr, f"{layer}.{attr.__qualname__}")
                setattr(cls, name, wrappers[id(attr)])

    def _wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        stack, spans, counts, tracer = self._stack, self.spans, self.counts, self
        next_id, clock = self._next_id, time.perf_counter
        count_dp, count_poly = name in _PREFIX_DPS, name == _POLY_MUL

        def traced(*args, **kwargs):
            if count_dp:
                xs = args[0]
                if not hasattr(xs, "__len__"):
                    xs = list(xs)
                    args = (xs,) + args[1:]
                counts[0] += len(xs) * (args[1] if len(args) > 1 else kwargs["M"])
            elif count_poly and len(args) > 1 and hasattr(args[1], "coeffs"):
                counts[1] += len(args[0].coeffs) * len(args[1].coeffs)
            span_id = next_id()
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[0]
                stat[3] += duration
                if stack:
                    stack[-1][0] += duration
                if len(spans) < tracer.span_cap:
                    spans.append((span_id, name, start, end, parent, tracer.task_id))
                else:
                    tracer.dropped += 1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced


def _rebind_dict(table: dict, wrappers: dict) -> None:
    for key, value in list(table.items()):
        if id(value) in wrappers:
            table[key] = wrappers[id(value)]
        elif id(getattr(value, "__func__", None)) in wrappers:
            table[key] = types.MethodType(wrappers[id(value.__func__)], value.__self__)


class TraceTotals:
    """Sums of the exports of many traced processes."""

    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.funcs: dict[str, list] = {}
        self.counts = [0, 0]
        self.cache = {"entries": 0, "hits": 0, "misses": 0}
        self.spans: list[tuple] = []
        self.dropped = 0

    def add(self, export: dict) -> None:
        for name, stat in export["funcs"].items():
            total = self.funcs.setdefault(name, [0, 0.0, 0, 0.0])
            for i, v in enumerate(stat):
                total[i] += v
        self.counts = [a + b for a, b in zip(self.counts, export["counts"])]
        caches = export["caches"]
        self.cache["entries"] = max(self.cache["entries"], caches["entries"])
        self.cache["hits"] += caches["hits"]
        self.cache["misses"] += caches["misses"]
        room = max(self.span_cap - len(self.spans), 0)
        self.spans.extend(export["spans"][:room])
        self.dropped += export["dropped"] + max(len(export["spans"]) - room, 0)

    def layer(self, layer: str) -> list:
        """[calls, self_s, errors] summed over the layer's functions."""
        out = [0, 0.0, 0]
        for name, stat in self.funcs.items():
            if name.split(".", 1)[0] == layer:
                out[0] += stat[0]
                out[1] += stat[1]
                out[2] += stat[2]
        return out

    def func(self, name: str) -> list:
        return self.funcs.get(name, [0, 0.0, 0, 0.0])
