"""Process-safe structured metrics: counters, gauges, histograms.

The registry is the measurement substrate for the experiment engine and
the persistent store.  Its process model is *merge-based*: every process
(the engine parent, each ``ProcessPoolExecutor`` worker) owns a private
:class:`MetricsRegistry`; workers ship plain-dict :meth:`snapshot`\\ s back
with their results and the parent folds them together with :meth:`merge`.
Nothing is ever shared between processes, so there is nothing to lock
across them -- a thread lock covers in-process concurrency.

Metric kinds:

* **counter** -- a monotonically increasing number (float-valued, so
  accumulated seconds work too).  Merging sums.
* **gauge** -- a last-written value (a level, not a rate).  Merging keeps
  the incoming value.
* **histogram** -- fixed upper-bound buckets plus ``sum`` and ``count``.
  Merging adds bucket-wise; histograms with different bucket layouts
  cannot merge (that is a programming error and raises).

Naming convention (used across the engine, the disk cache and the CLI):
dotted lowercase paths, e.g. ``cache.result.hits``,
``engine.group.seconds``, ``worker.12345.busy_seconds``.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_OM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _om_name(name: str) -> str:
    """Sanitise a dotted metric name to the OpenMetrics charset."""
    sanitised = _OM_INVALID.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _om_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


#: Default histogram layout for wall-time observations (seconds).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
    math.inf,
)


@dataclass
class Counter:
    """A monotonically increasing value."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        self.value += amount


@dataclass
class Gauge:
    """A last-written level (worker utilization, queue depth, ...)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-bucket histogram: cumulative-style upper bounds.

    ``buckets`` are inclusive upper bounds, strictly increasing, and must
    end with ``inf`` so every observation lands somewhere.  ``counts[i]``
    is the number of observations ``<= buckets[i]`` and ``> buckets[i-1]``
    (per-bucket, not cumulative, so merging is a plain vector add).
    """

    buckets: Tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
    counts: List[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.buckets or self.buckets[-1] != math.inf:
            raise ValueError("histogram buckets must end with inf")
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        if not self.counts:
            self.counts = [0] * len(self.buckets)
        elif len(self.counts) != len(self.buckets):
            raise ValueError("counts and buckets must have the same length")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            seen += bucket_count
            if seen >= target:
                return bound
        return self.buckets[-1]


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Thread-safe within a process; across processes, use
    :meth:`snapshot` / :meth:`merge` (see the module docstring).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access / creation ---------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(
                    buckets=tuple(buckets) if buckets else DEFAULT_SECONDS_BUCKETS
                )
                self._histograms[name] = histogram
            return histogram

    # -- convenience mutators ------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.histogram(name, buckets).observe(value)

    def value(self, name: str) -> float:
        """Counter (or gauge) value by name; 0.0 when never touched."""
        with self._lock:
            if name in self._counters:
                return self._counters[name].value
            if name in self._gauges:
                return self._gauges[name].value
        return 0.0

    # -- cross-process plumbing ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain, JSON- and pickle-safe copy of every metric."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: {
                        "buckets": [
                            "inf" if b == math.inf else b for b in h.buckets
                        ],
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for k, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            buckets = tuple(
                math.inf if b == "inf" else float(b)
                for b in data["buckets"]
            )
            histogram = self.histogram(name, buckets)
            if histogram.buckets != buckets:
                raise ValueError(
                    f"histogram {name!r} bucket layouts differ; cannot merge"
                )
            with self._lock:
                for i, c in enumerate(data["counts"]):
                    histogram.counts[i] += c
                histogram.sum += data["sum"]
                histogram.count += data["count"]

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry

    def to_openmetrics(self) -> str:
        """Render every metric as an OpenMetrics text exposition.

        Counters become ``<name>_total`` samples, gauges plain samples,
        histograms cumulative ``_bucket{le="..."}`` series plus
        ``_sum``/``_count``; dotted names are sanitised to the
        OpenMetrics charset (dots to underscores).  The exposition ends
        with ``# EOF`` as the spec requires, so Prometheus (or any
        OpenMetrics parser) can scrape a ``repro stats --format
        openmetrics`` dump without bespoke parsing.
        """
        with self._lock:
            counters = {k: c.value for k, c in self._counters.items()}
            gauges = {k: g.value for k, g in self._gauges.items()}
            histograms = {
                k: (h.buckets, tuple(h.counts), h.sum, h.count)
                for k, h in self._histograms.items()
            }
        lines: List[str] = []
        for name in sorted(counters):
            metric = _om_name(name)
            # The metric name excludes the _total suffix; the sample
            # carries it.  Strip a pre-existing one so "x.seconds_total"
            # does not expose "x_seconds_total_total".
            if metric.endswith("_total"):
                metric = metric[: -len("_total")]
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}_total {_om_number(counters[name])}")
        for name in sorted(gauges):
            metric = _om_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_om_number(gauges[name])}")
        for name in sorted(histograms):
            metric = _om_name(name)
            buckets, counts, total, count = histograms[name]
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, bucket_count in zip(buckets, counts):
                cumulative += bucket_count
                le = "+Inf" if bound == math.inf else _om_number(bound)
                lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{metric}_sum {_om_number(total)}")
            lines.append(f"{metric}_count {count}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>"
            )
