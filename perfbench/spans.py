"""Tracing from outside the library: wrap the public functions of each
axiombox module, record spans in memory, and turn them into per-layer
metrics once the run is over.

Installing rebinds every module attribute that refers to a wrapped function,
including names that one module imported from another with
``from .gf2 import ...``, so calls between layers are seen too.  Uninstalling
puts the originals back.  The library's own files are never changed.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "gf2", "blackbox", "pauli", "stabilizer", "logic", "experiment", "oracle", "cli",
)

# Leaf calls made tens of thousands of times per job: a span would cost about
# as much as the call, so they are only counted, and their time stays in the
# caller's self time.
COUNT_ONLY = frozenset(
    {"gf2.symplectic_product", "gf2.swap_halves", "pauli.multiply", "pauli.commutes"}
)
# Property getters traced as functions of their layer.
PROPERTIES = (
    ("blackbox", "BlackBoxConfig", "f0_vector"),
    ("blackbox", "BlackBoxConfig", "f1_vector"),
)
MEASURE_CALLS = frozenset({"stabilizer.measure", "stabilizer.measure_forced"})
KEEP_ARGS = frozenset({"stabilizer.joint_distribution"})


class Tracer:
    """Spans are tuples ``(name, start, end, parent index, args or None)``
    appended in start order, so a parent always precedes its children."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()  # COUNT_ONLY names
        self.kinds = Counter()  # MeasurementKind values of measure results
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself (a job)."""
        return _Span(self, name)

    def _wrap(self, fn, name):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        if name in COUNT_ONLY:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        keep = name in KEEP_ARGS
        kinds = self.kinds if name in MEASURE_CALLS else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, args if keep else None)
            if kinds is not None:
                kinds[result.kind.value] += 1
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("axiombox")] + [
            importlib.import_module(f"axiombox.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for layer, cls_name, attr in PROPERTIES:
            cls = getattr(importlib.import_module(f"axiombox.{layer}"), cls_name)
            prop = cls.__dict__[attr]
            self._undo.append((cls, attr, prop))
            setattr(cls, attr, property(self._wrap(prop.fget, f"{layer}.{attr}")))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append((self.name, time.perf_counter(), None, parent, None))
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.stack.pop()
        name, start, _, parent, _ = t.spans[self.index]
        t.spans[self.index] = (name, start, time.perf_counter(), parent, None)
        return False


def analyse(spans: list) -> list:
    """Per-span self time: duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(end - start) - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def self_seconds(spans: list, self_time: list) -> dict:
    """Layer -> summed self time."""
    out = defaultdict(float)
    for span, t in zip(spans, self_time):
        layer = span[0].split(".", 1)[0]
        if layer in LAYERS:
            out[layer] += t
    return dict(out)


def name_counts(spans: list) -> Counter:
    return Counter(span[0] for span in spans)


def children_named(spans: list, parent_name: str, child_name: str) -> int:
    parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
    return sum(1 for s in spans if s[0] == child_name and s[3] in parents)
