"""Per-layer spans recorded around calls into gmqd, from outside the package.

A :class:`Tracer` replaces module attributes -- the names that callers look
up, such as ``gmqd.dynamics.gmqd_numeric`` -- with shims that record one span
per call: layer name, start, end and the span that was open when the call
began.  ``Tracer.installed`` puts every original attribute back when its block
ends, so no shim outlives the traced phase.

Spans are kept in memory and reduced by :meth:`Tracer.totals` to additive
per-layer sums, which can be added across processes with :func:`merge`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


def self_time(start: int, end: int, children) -> int:
    """Duration of ``[start, end]`` minus the part covered by child intervals.

    Children may overlap or nest inside one another; each instant of the span
    is subtracted at most once, and child time outside the span is ignored.
    """
    covered = 0
    reach = start
    for c0, c1 in sorted(children):
        lo, hi = max(c0, reach), min(c1, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return end - start - covered


class Tracer:
    """Records spans for wrapped module attributes; not thread-safe."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index, start_ns, end_ns, size]
        self.searches: list[tuple] = []  # (enclosing span index, nfev, final objective)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, layer: str):
        """Record a span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append([layer, self._stack[-1] if self._stack else None, time.perf_counter_ns(), None, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter_ns()

    def _shim(self, original, layer, size):
        def shim(*args, **kwargs):
            with self.span(layer):
                result = original(*args, **kwargs)
                if size is not None:
                    self.spans[self._stack[-1]][4] = size(result)
            return result
        return shim

    def _search_shim(self, original):
        def shim(*args, **kwargs):
            result = original(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            self.searches.append((parent, int(result.nfev), float(result.fun)))
            return result
        return shim

    def _replace(self, module, attr, shim):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, shim)

    @contextmanager
    def installed(self, layers, searches=()):
        """Wrap attributes for the duration of the block, then restore them all.

        ``layers`` holds ``(module, attr, layer, size)`` tuples, where ``size``
        is None or a function of the call's result recorded on its span.
        ``searches`` holds ``(module, attr)`` pairs naming optimiser entry
        points; their calls are counted against the enclosing span, with the
        result's ``nfev`` and ``fun``, and make no span of their own.
        """
        try:
            for module, attr, layer, size in layers:
                self._replace(module, attr, self._shim(getattr(module, attr), layer, size))
            for module, attr in searches:
                self._replace(module, attr, self._search_shim(getattr(module, attr)))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def totals(self, hit_tol: float) -> dict:
        """Additive per-layer sums over every recorded span.

        Per layer: ``calls``, ``ns`` (inclusive time), ``self_ns`` (time not
        covered by a child span) and ``size``.  Optimiser calls add
        ``searches`` and ``nfev`` to their enclosing layer, and ``hits``: the
        searches of one enclosing call that ended within ``hit_tol`` of that
        call's best objective.
        """
        children = defaultdict(list)
        for layer, parent, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict = defaultdict(lambda: defaultdict(int))
        for idx, (layer, _, start, end, size) in enumerate(self.spans):
            entry = out[layer]
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += self_time(start, end, children[idx])
            if size is not None:
                entry["size"] += size
        by_call = defaultdict(list)
        for parent, nfev, fun in self.searches:
            by_call[parent].append((nfev, fun))
        for parent, found in by_call.items():
            entry = out[self.spans[parent][0] if parent is not None else "none"]
            best = min(fun for _, fun in found)
            entry["searches"] += len(found)
            entry["nfev"] += sum(nfev for nfev, _ in found)
            entry["hits"] += sum(fun <= best + hit_tol for _, fun in found)
        return {layer: dict(entry) for layer, entry in out.items()}


def merge(into: dict, more: dict) -> dict:
    """Add the per-layer sums of ``more`` into ``into`` and return it."""
    for layer, entry in more.items():
        target = into.setdefault(layer, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value
    return into
