"""In-memory spans for the traced benchmark run.

A span records name, start, end, its parent span and any counts attached
at that boundary. ``Tracer.summary`` turns the spans into per-layer
figures: the self time of a span is its duration minus the time its child
spans cover, so the self times of all spans add up to the time of the
root spans. ``NULL`` is the tracer of the untraced run: same interface,
no recording.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, id_, parent, name, counts):
        self.id, self.parent, self.name = id_, parent, name
        self.start = self.end = 0.0
        self.counts = dict(counts)

    def count(self, **kw):
        for k, v in kw.items():
            self.counts[k] = self.counts.get(k, 0) + v


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1].id if self._stack else None
        s = _Span(len(self.spans), parent, name, counts)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counts):
        """``fn`` inside a span; ``counts(args, result)`` returns the counts
        to attach."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                s.count(**counts(args, out))
                return out
        return traced

    def records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "counts": s.counts}
                for s in self.spans]

    def summary(self) -> dict:
        """Per span name: total self seconds, number of spans and summed
        counts; plus the seconds the root spans cover."""
        spans = self.spans
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        root_s = 0.0
        for s in spans:
            rec = out.setdefault(s.name, {"self_s": 0.0, "spans": 0})
            rec["self_s"] += (s.end - s.start) - child[s.id]
            rec["spans"] += 1
            for k, v in s.counts.items():
                rec[k] = rec.get(k, 0) + v
            if s.parent is None:
                root_s += s.end - s.start
        return {"layers": out, "root_s": root_s}


class _NullSpan:
    def count(self, **kw):
        pass


class _NullTracer:
    on = False
    _span = _NullSpan()

    @contextmanager
    def span(self, name: str, **counts):
        yield self._span


NULL = _NullTracer()
