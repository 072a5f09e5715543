"""Spans around the program's functions, for the traced run only.

``Tracer.install`` replaces every function in the namespaces of the
program's modules with a wrapper that records call counts and busy time.
That covers the public functions, the module globals a module calls
internally, the names ``catalog`` and ``cli`` import from other modules,
the methods of the program's classes, and ``ArgumentParser.parse_args``
as seen from ``cli``.  Each span is keyed by the module that defines the
function, which is its layer.

A layer's self time is its busy time minus the time spent in child spans
of other layers; spans of the same layer nested inside it are part of it.
"""

from __future__ import annotations

import argparse
import functools
import time
import types
from collections import defaultdict

LAYERS = ("cli", "catalog", "rhythm", "z12", "perm")

# Work done by one call, for the per-unit figures.
UNITS = {
    ("rhythm", "parse_rhythm"): lambda args, result: len(result.durations),
    ("rhythm", "format_rhythm"): lambda args, result: len(args[0].durations),
    ("rhythm", "augment"): lambda args, result: len(result.durations),
    ("rhythm", "total_duration"): lambda args, result: len(args[0].durations),
    ("perm", "orbit_table"): lambda args, result: result.order,
    ("catalog", "load_catalog"): lambda args, result: len(result),
    ("catalog", "serialize_catalog"): lambda args, result: result.count("\n"),
}


class Stat:
    __slots__ = ("calls", "total_ns", "foreign_ns", "units")

    def __init__(self):
        self.calls = self.total_ns = self.foreign_ns = self.units = 0


class Tracer:
    def __init__(self):
        self.stats: defaultdict[tuple[str, str], Stat] = defaultdict(Stat)
        self.busy_ns: defaultdict[str, int] = defaultdict(int)
        self.edges: defaultdict[tuple, int] = defaultdict(int)
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def _wrap(self, key, fn):
        stat, stack, busy, edges = self.stats[key], self._stack, self.busy_ns, self.edges
        layer = key[0]
        units = UNITS.get(key)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0]  # [key, time in child spans of other layers]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_ns += dt
                stat.foreign_ns += frame[1]
                if parent is not None:
                    edges[parent[0], key] += 1
                    # Another layer's span is foreign time for its parent; a span
                    # of the same layer passes up the foreign time it holds.
                    parent[1] += dt if parent[0][0] != layer else frame[1]
                if parent is None or parent[0][0] != layer:
                    busy[layer] += dt
            if units is not None:
                stat.units += units(args, result)
            return result

        return span

    def _patch(self, owner, name, key, fn) -> None:
        self._undo.append((owner, name, fn))
        setattr(owner, name, self._wrap(key, fn))

    def install(self, modules) -> None:
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("messiaen."):
                    self._patch(mod, name, (obj.__module__.rsplit(".", 1)[1], name), obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and not attr.startswith("__"):
                            self._patch(obj, attr, (layer, f"{obj.__name__}.{attr}"), fn)
            if layer == "cli":
                self._patch(argparse.ArgumentParser, "parse_args", ("cli", "parse_args"),
                            argparse.ArgumentParser.parse_args)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, fn = self._undo.pop()
            setattr(owner, name, fn)

    # --- figures --------------------------------------------------------

    def calls(self, layer: str, name: str | None = None) -> int:
        if name is not None:
            return self.stats[layer, name].calls
        return sum(s.calls for (lay, _), s in self.stats.items() if lay == layer)

    def us_per_call(self, layer: str, name: str) -> float:
        s = self.stats[layer, name]
        return s.total_ns / s.calls / 1e3 if s.calls else 0.0

    def us_per_unit(self, layer: str, name: str) -> float:
        s = self.stats[layer, name]
        return s.total_ns / s.units / 1e3 if s.units else 0.0

    def total_ms(self, layer: str, name: str) -> float:
        return self.stats[layer, name].total_ns / 1e6

    def self_ms(self, layer: str, name: str) -> float:
        s = self.stats[layer, name]
        return (s.total_ns - s.foreign_ns) / 1e6

    def busy_ms(self, layer: str) -> float:
        return self.busy_ns[layer] / 1e6
