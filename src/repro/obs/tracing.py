"""Span tracing for experiment runs.

A run trace is a tree of spans -- *plan* at the root, one *sweep* span
per computed trace group and one *cell* span per cached cell under it,
*resolve*/*replay*/*limits* spans under each sweep -- with parent ids and
monotonic timestamps; :func:`nesting_errors` checks that it nests.
Worker processes cannot share the parent's tracer, so they record their
spans as plain tuples (monotonic clocks are system-wide on Linux, hence
directly comparable across fork) and the parent adopts them with
:meth:`Tracer.adopt`.

Two export formats:

* :meth:`Tracer.to_payload` -- a JSON-safe list of span dicts, stored in
  the run manifest;
* :func:`spans_to_chrome` -- the Chrome ``trace_event`` format (load the
  file in ``chrome://tracing`` or https://ui.perfetto.dev), produced by
  ``python -m repro trace-export``;
* :func:`spans_to_perfetto` -- the same events plus process/thread
  naming metadata, so Perfetto labels one track per worker
  (``repro trace-export --format perfetto``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "nesting_errors",
    "spans_to_chrome",
    "spans_to_perfetto",
]


@dataclass
class Span:
    """One timed operation in a run trace.

    Attributes:
        name: operation label (``plan:table1``, ``sweep:kernel:5:n=200``...).
        span_id: unique id within the trace.
        parent_id: id of the enclosing span, or None at the root.
        start: monotonic start time (seconds).
        end: monotonic end time (seconds); None while still open.
        pid: OS process the operation ran in (0 = unknown).
        attrs: free-form JSON-safe attributes.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    pid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            span_id=int(data["span_id"]),
            parent_id=(
                None if data.get("parent_id") is None
                else int(data["parent_id"])
            ),
            start=float(data["start"]),
            end=None if data.get("end") is None else float(data["end"]),
            pid=int(data.get("pid", 0)),
            attrs=dict(data.get("attrs", {})),
        )


class Tracer:
    """Collects spans for one run; single-threaded by design.

    Use :meth:`span` as a context manager for in-process work and
    :meth:`adopt` for spans timed elsewhere (worker processes).
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._next_id = 1
        self._stack: List[int] = []
        self.spans: List[Span] = []

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @property
    def current_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, *, pid: int = 0, **attrs: Any) -> Iterator[Span]:
        record = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=self.current_id,
            start=self._clock(),
            pid=pid,
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._clock()

    def adopt(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent_id: Optional[int] = None,
        pid: int = 0,
        **attrs: Any,
    ) -> Span:
        """Record a span timed in another process (or earlier)."""
        record = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=parent_id if parent_id is not None else self.current_id,
            start=start,
            end=end,
            pid=pid,
            attrs=attrs,
        )
        self.spans.append(record)
        return record

    def to_payload(self) -> List[Dict[str, Any]]:
        """JSON-safe export of every span (open spans get end=None)."""
        return [span.to_dict() for span in self.spans]


#: Slack for float rounding when comparing span endpoints (seconds).
_NESTING_SLACK = 1e-9


def nesting_errors(spans: Sequence[Mapping[str, Any]]) -> List[str]:
    """Spans that leave their parent, or whose children overfill it.

    Every child must lie inside its parent's interval, and the children
    a parent has *in one process* must sum to no more than the parent's
    duration -- one process runs its spans one after another, while pool
    workers run side by side under the same plan span.  An empty list
    means the trace nests cleanly.
    """
    records = {record.span_id: record for record in map(Span.from_dict, spans)}
    child_seconds: Dict[tuple, float] = {}
    errors: List[str] = []
    for span in records.values():
        parent = records.get(span.parent_id)
        if parent is None or span.end is None:
            continue
        if (
            span.start < parent.start - _NESTING_SLACK
            or parent.end is None
            or span.end > parent.end + _NESTING_SLACK
        ):
            errors.append(
                f"span {span.span_id} ({span.name}) leaves its parent "
                f"{parent.span_id} ({parent.name})"
            )
        key = (parent.span_id, span.pid)
        child_seconds[key] = child_seconds.get(key, 0.0) + span.duration
    for (parent_id, pid), seconds in child_seconds.items():
        parent = records[parent_id]
        if seconds > parent.duration + _NESTING_SLACK:
            errors.append(
                f"span {parent_id} ({parent.name}): children in pid {pid} "
                f"sum to {seconds:.6f}s, more than its {parent.duration:.6f}s"
            )
    return errors


def spans_to_chrome(
    spans: Sequence[Mapping[str, Any]], *, default_pid: int = 0
) -> Dict[str, Any]:
    """Convert a span payload into Chrome ``trace_event`` JSON.

    Every span becomes a complete ("ph": "X") event; timestamps are
    rebased to the earliest span and expressed in microseconds, as the
    format requires.  The result is directly loadable in
    ``chrome://tracing`` and Perfetto.
    """
    records = [Span.from_dict(s) for s in spans]
    closed = [s for s in records if s.end is not None]
    origin = min((s.start for s in closed), default=0.0)
    events = []
    for span in closed:
        pid = span.pid or default_pid
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": pid,
            "tid": pid,
            "args": dict(
                span.attrs,
                span_id=span.span_id,
                parent_id=span.parent_id,
            ),
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }


def spans_to_perfetto(
    spans: Sequence[Mapping[str, Any]], *, default_pid: int = 0
) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON with named per-worker tracks.

    Same complete events as :func:`spans_to_chrome`, prefixed with
    ``"ph": "M"`` ``process_name``/``thread_name`` metadata: the pid
    that owns a root span is labelled as the engine parent, every other
    pid as a worker, so Perfetto renders one labelled track per process
    instead of bare numbers.
    """
    payload = spans_to_chrome(spans, default_pid=default_pid)
    records = [Span.from_dict(s) for s in spans]
    root_pids = {
        s.pid or default_pid for s in records if s.parent_id is None
    }
    metadata: List[Dict[str, Any]] = []
    for pid in sorted({s.pid or default_pid for s in records if s.end is not None}):
        label = (
            f"repro engine (pid {pid})"
            if pid in root_pids
            else f"repro worker (pid {pid})"
        )
        for kind in ("process_name", "thread_name"):
            metadata.append({
                "name": kind,
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": label},
            })
    payload["traceEvents"] = metadata + payload["traceEvents"]
    return payload
