"""The in-process trace memo.

A trace depends only on its source -- the kernel, its problem size and
code variant, or a seeded generator's parameters -- and *not* on any
machine parameter (memory latency, branch time, issue method are all
timing-level concerns).  The paper exploits the same property: one trace
per benchmark drives every machine variant.

:data:`GLOBAL_TRACE_CACHE` is the process's one trace memo, keyed by
canonical trace-source spec (``kernel:5:n=200``, ``branchy:seed=7``).
The experiment engine's :func:`~repro.harness.engine.resolve_trace`
fills it in front of the persistent
:class:`~repro.trace.diskcache.DiskCache`, and
:meth:`~repro.kernels.KernelInstance.trace` memoizes under the
instance's own spec, so a trace captured for a single-kernel call and
the one a table replays are the same object.

The memo holds at most :data:`CAPACITY` traces and drops the least
recently used one beyond that, so a long-lived process that resolves
fresh seeded sources keeps a bounded working set.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Callable, Hashable, Optional

from .record import Trace

_CacheKey = Hashable

#: Most traces one memo keeps: twice the 14 kernel sources of a
#: ``tables all`` pass, with room for a few single-trace calls.
CAPACITY = 32


class TraceCache:
    """A small thread-safe LRU memoisation table for traces."""

    def __init__(self) -> None:
        self._traces: "OrderedDict[_CacheKey, Trace]" = OrderedDict()
        self._lock = Lock()

    def get_or_build(self, key: _CacheKey, build: Callable[[], Trace]) -> Trace:
        """Return the cached trace for *key*, building it on first use."""
        cached = self.peek(key)
        if cached is not None:
            return cached
        trace = build()
        with self._lock:
            # Another thread may have raced us; keep the first one stored so
            # callers always see a single canonical object per key.
            trace = self._traces.setdefault(key, trace)
            self._traces.move_to_end(key)
            while len(self._traces) > CAPACITY:
                self._traces.popitem(last=False)
            return trace

    def peek(self, key: _CacheKey) -> Optional[Trace]:
        """Return the cached trace for *key* (now the most recently
        used), or None."""
        with self._lock:
            cached = self._traces.get(key)
            if cached is not None:
                self._traces.move_to_end(key)
            return cached

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


#: The process-wide trace memo, keyed by canonical trace-source spec.
GLOBAL_TRACE_CACHE = TraceCache()
