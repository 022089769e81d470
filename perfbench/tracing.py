"""In-memory span tracing around ontoflux's layer functions.

The benchmark never edits the library.  Instead it replaces, for the
duration of a traced phase, the module attributes that callers look up
at call time (``ontoflux.monitor.merge``, ``ontoflux.kb.saturate``, ...)
with wrappers that record a span per call.  Spans keep name, start,
end, parent and the op they belong to; they stay in memory and are
written out as JSON lines when the run ends.

A wrapper may also inspect a call's arguments and result to add counts
to its span (atoms out, bytes parsed, ...).  That inspection runs after
the span has ended and its duration is charged to the parent span's
``excluded`` time, so self times cover library work only.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "excluded")

    def __init__(self, name: str, start: float, parent: Optional[int], op: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs: dict = {}
        self.excluded = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


# after(attrs, args, kwargs, result) fills a span's counts from its call
After = Callable[[dict, tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self.recording = False  # wrappers pass straight through while False
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, after: Optional[After] = None):
        if not self.recording:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else None
        span = Span(name, perf_counter(), parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
        if after is not None:
            after(span.attrs, args, kwargs, result)
            if parent is not None:
                self.spans[parent].excluded += perf_counter() - span.end
        return result

    def wrap(self, name: str, fn: Callable, after: Optional[After] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)

        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """Count calls without a span, for functions cheaper than a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.recording:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op}
                if s.attrs:
                    row["attrs"] = s.attrs
                out.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations and its excluded time."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c - s.excluded for s, c in zip(spans, covered)]


def aggregate(spans: list[Span], select: Callable[[Span], bool] = lambda s: True) -> dict[str, dict]:
    """Per span name: call count, total duration, total self time, summed attrs.

    Self times come from the whole tree; ``select`` only picks the spans counted.
    """
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        if not select(s):
            continue
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": Counter()})
        agg["calls"] += 1
        agg["total_s"] += s.duration
        agg["self_s"] += own
        agg["attrs"].update(s.attrs)
    return out


@contextmanager
def patched(replacements: Iterable[tuple[object, str, Callable]]):
    """Set ``obj.attr = value`` for each triple; restore the originals on exit."""
    saved = []
    try:
        for obj, attr, value in replacements:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
