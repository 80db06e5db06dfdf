"""In-memory spans around the benchmark's calls into the library.

A :class:`Tracer` records one span per wrapped call: name, start, end,
parent span and optional attributes.  Spans stay in memory until the run
ends; :func:`chrome_trace` turns them into Chrome trace-event JSON (open
it in Perfetto or ``chrome://tracing``) and :func:`layer_summary` into
per-layer count, total time and self time.

The untraced run uses :data:`NULL_TRACER`, whose ``span`` hands back one
shared no-op context manager, so the end-to-end numbers carry no
recording cost.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call.  Times are ``perf_counter`` seconds."""

    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans from a single client thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the body as span ``name``; yields the :class:`Span` so the
        caller can attach attributes learned inside the body."""
        record = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()


class _NullTracer:
    """Tracing off: every span is the same do-nothing context manager."""

    enabled = False
    spans: Sequence[Span] = ()
    _null = contextlib.nullcontext(None)

    def span(self, name: str, **attrs):
        return self._null


NULL_TRACER = _NullTracer()


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def layer_summary(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{span name: {count, total_s, self_s}}``, in first-seen order."""
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = summary.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return summary


def chrome_trace(spans: Sequence[Span], meta: Optional[dict] = None) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {
                "id": span.id,
                "parent": span.parent,
                **{k: _jsonable(v) for k, v in span.attrs.items()},
            },
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta or {}}


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
