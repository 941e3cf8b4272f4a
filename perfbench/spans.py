"""Span tracing around a package's module entry points, from the caller's side.

Every entry point handed to ``Tracer`` is replaced, in each module of its
package whose namespace holds it, by a wrapper that records a span: the
layer key, start and end (``time.perf_counter``) and the span that was
open when it started.  Spans stay in memory until ``Tracer.take`` hands
them over; ``Tracer.patched`` puts every original function back on exit.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  A span started on a worker thread with nothing
open on that thread is made a child of the innermost span open on the
thread that activated the tracer (the one that started the workers), so
the time a pool's workers spend inside layers is not counted twice.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    key: str
    start: float
    end: float = math.nan
    parent: "Span | None" = None


@dataclass
class LayerSummary:
    """One layer's numbers over a set of spans.

    ``calls`` counts entry spans: spans whose parent belongs to another
    layer, so a layer calling itself through another entry point is one
    call.  ``self_s`` sums self time over all of the layer's spans;
    ``total_s`` sums the inclusive duration of its entry spans, whose
    durations are kept in ``durations``.
    """

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[id(span)]
        )
        out[id(span)] = (span.end - span.start) - covered
    return out


def summarize(spans) -> dict[str, LayerSummary]:
    """Per-layer calls, self time and entry-span durations."""
    selfs = self_times(spans)
    out: dict[str, LayerSummary] = defaultdict(LayerSummary)
    for span in spans:
        layer = out[span.key]
        layer.self_s += selfs[id(span)]
        if span.parent is None or span.parent.key != span.key:
            layer.calls += 1
            layer.total_s += span.end - span.start
            layer.durations.append(span.end - span.start)
    return dict(out)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """Records spans around ``entry_points`` while ``patched`` is active.

    ``entry_points`` is a sequence of (module name, attribute, layer key).
    An entry point whose module or attribute no longer exists is listed in
    ``unmeasured`` and skipped, so its layer reports no spans instead of
    failing the run.
    """

    def __init__(self, entry_points):
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._targets = []
        for module_name, attr, key in entry_points:
            module = sys.modules.get(module_name)
            target = getattr(module, attr, None) if module is not None else None
            if callable(target):
                self._targets.append((module_name.split(".")[0], target, key))
            else:
                self.unmeasured.append(f"{module_name}.{attr}")
        self._local = threading.local()
        self._home_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home else None
            span = Span(key, time.perf_counter(), parent=parent)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers; restore every patched name on exit."""
        saved = []
        try:
            for package, target, key in self._targets:
                wrapper = self._wrap(key, target)
                for name, module in list(sys.modules.items()):
                    if module is None or not (name == package or name.startswith(package + ".")):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is target:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            self._home_stack = self._stack()
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)
            self._home_stack = []

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans
