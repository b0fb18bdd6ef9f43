"""In-memory spans around the public virialkit calls the benchmark exercises.

The tracer patches each traced name where its caller looks it up, records a
span per call (name, start, end, parent span, request id) and keeps
everything in memory until the run ends.  Calls that happen hundreds of
thousands of times per request (series products, canonical keys, synthetic
weight lookups, Monte Carlo runs) are leaves: they call nothing that is
traced, so they are aggregated per (parent span, name) into a call count, a
busy time and counters instead of one record each.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "counters")

    def __init__(self, id, name, start, end=None, parent=None, request=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.counters = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Leaf:
    """All calls of one leaf name under one parent span."""

    __slots__ = ("name", "parent", "request", "calls", "seconds", "counters")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.calls = 0
        self.seconds = 0.0
        self.counters = {}


class NullTracer:
    """Stands in for the tracer in untraced runs; its spans are discarded."""

    @contextmanager
    def span(self, name, request=None):
        yield Span(None, name, 0.0)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.leaves: dict[tuple, Leaf] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name, request=None):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        s = Span(len(self.spans), name, self.clock(),
                 parent=None if parent is None else parent.id, request=request)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def leaf(self, name, seconds: float, **counters) -> None:
        parent = self._stack[-1] if self._stack else None
        key = (None if parent is None else parent.id, name)
        agg = self.leaves.get(key)
        if agg is None:
            agg = self.leaves[key] = Leaf(name, key[0], None if parent is None else parent.request)
        agg.calls += 1
        agg.seconds += seconds
        for k, v in counters.items():
            agg.counters[k] = agg.counters.get(k, 0) + v

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, **s.counters}) + "\n")
            for agg in self.leaves.values():
                fh.write(json.dumps({"leaf": agg.name, "parent": agg.parent,
                                     "request": agg.request, "calls": agg.calls,
                                     "seconds": agg.seconds, **agg.counters}) + "\n")


# -- span arithmetic ------------------------------------------------------------


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans, leaves=()) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Child spans are merged as intervals clipped to the parent.  Aggregated
    leaf calls add their busy time: in a single-threaded run they overlap
    neither one another nor a sibling span.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    leaf_time: dict[int, float] = {}
    for agg in leaves:
        if agg.parent is not None:
            leaf_time[agg.parent] = leaf_time.get(agg.parent, 0.0) + agg.seconds
    return {s.id: s.duration - _union_length(children.get(s.id, ()), s.start, s.end)
            - leaf_time.get(s.id, 0.0) for s in spans}


# -- patching -------------------------------------------------------------------


class Patches:
    """Replaces attributes and puts the originals back on `restore`."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _span_wrapper(tracer, name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _leaf_wrapper(tracer, name, fn, counters=None):
    clock = tracer.clock

    def wrapper(*args, **kwargs):
        start = clock()
        out = fn(*args, **kwargs)
        elapsed = clock() - start
        if counters is None:
            tracer.leaf(name, elapsed)
        else:
            tracer.leaf(name, elapsed, **counters(*args, **kwargs))
        return out
    return wrapper


def _mul_counters(a, b):
    """|a|*|b| term pairs a series product visits, and how many of them fall
    within the degree cap."""
    if not hasattr(b, "terms"):
        return {"pairs": 0, "pairs_in_cap": 0}
    cap = a.truncation.degree
    hist_a, hist_b = {}, {}
    for n in a.terms:
        d = n.degree
        hist_a[d] = hist_a.get(d, 0) + 1
    for n in b.terms:
        d = n.degree
        hist_b[d] = hist_b.get(d, 0) + 1
    kept = sum(ca * cb for da, ca in hist_a.items() for db, cb in hist_b.items()
               if da + db <= cap)
    return {"pairs": len(a.terms) * len(b.terms), "pairs_in_cap": kept}


def _mc_counters(g, u, p):
    return {"mayer_evals": len(g.graph.edges) * p.sample_count}


def install(tracer: Tracer, vk) -> Patches:
    """Patch the traced names of the package `vk` (its modules as attributes)."""
    patches = Patches()
    series, virial, weights = vk.series, vk.virial, vk.weights
    patches.set(series.MPSeries, "__mul__",
                _leaf_wrapper(tracer, "series.mul", series.MPSeries.__mul__, _mul_counters))
    key = _leaf_wrapper(tracer, "graphs.canonical_key", virial.canonical_coloured_key)
    patches.set(virial, "canonical_coloured_key", key)
    patches.set(weights, "canonical_coloured_key", key)
    patches.set(weights.SyntheticBlockModel, "weight_for_canonical_key",
                _leaf_wrapper(tracer, "weights.synthetic",
                              weights.SyntheticBlockModel.weight_for_canonical_key))
    patches.set(weights, "weight_mc",
                _leaf_wrapper(tracer, "weights.mc", weights.weight_mc, _mc_counters))
    for owner, attr, name in (
            (virial, "determinant", "series.determinant"),
            (virial, "reciprocal", "series.reciprocal"),
            (virial, "pressure_from_weights", "virial.pressure"),
            (virial, "invert_recursive", "virial.recursive"),
            (virial, "virial_from_two_connected", "virial.two_connected"),
            (virial.LagrangeGoodInverter, "coefficient", "virial.lagrange_good"),
            (vk.bounds, "bound_report", "bounds.report"),
            (vk.cli, "main", "cli.main")):
        patches.set(owner, attr, _span_wrapper(tracer, name, getattr(owner, attr)))
    return patches
