"""Observability: structured metrics, run tracing, simulator events.

The paper's core question is *where issue cycles go*; this package is the
repo-wide answer to the engineering version of that question -- where
wall time, cache traffic and simulator cycles go:

* :mod:`repro.obs.metrics` -- a merge-based, process-safe registry of
  counters, gauges and fixed-bucket histograms.  The experiment engine
  aggregates per-sweep-group wall time and queue wait, cache
  hit/miss/corruption counts and per-worker utilization through it.
* :mod:`repro.obs.tracing` -- span traces (plan -> sweep ->
  lookup/resolve/replay/store) with parent ids and monotonic timestamps, exportable
  as JSON or Chrome ``trace_event`` format (``repro trace-export``).
* :mod:`repro.obs.events` -- typed issue/stall/complete/flush events
  the reference loops emit to the callback of ``simulate_observed``;
  the invariant checker and the oracle (:mod:`repro.verify`) consume
  them.
* :mod:`repro.obs.telemetry` -- closed-form aggregate telemetry
  (:class:`SimTelemetry`): stall/busy/width/occupancy attribution the
  compiled fast loops fill with O(instructions) work and the reference
  loops derive from their event streams, making attribution available
  at fast-path speed (:mod:`repro.analysis` reads it).
* :mod:`repro.obs.manifest` -- durable per-run manifests (config, git
  SHA, timings, metric snapshots) written next to the cache entries and
  rendered by ``repro stats``.
"""

from .events import EventCallback, EventCollector, EventKind, SimEvent, tee
from .telemetry import (
    SimTelemetry,
    TELEMETRY_PREFIX,
    strip_telemetry,
    telemetry_from_events,
)
from .manifest import (
    RunManifest,
    current_git_sha,
    find_manifest,
    latest_manifest,
    list_manifests,
    load_manifest,
    manifest_dir,
    new_run_id,
    write_manifest,
)
from .metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import (
    Span,
    Tracer,
    nesting_errors,
    spans_to_chrome,
    spans_to_perfetto,
)

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "EventCallback",
    "EventCollector",
    "EventKind",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunManifest",
    "SimEvent",
    "SimTelemetry",
    "Span",
    "TELEMETRY_PREFIX",
    "Tracer",
    "current_git_sha",
    "find_manifest",
    "latest_manifest",
    "list_manifests",
    "load_manifest",
    "manifest_dir",
    "new_run_id",
    "nesting_errors",
    "spans_to_chrome",
    "spans_to_perfetto",
    "strip_telemetry",
    "tee",
    "telemetry_from_events",
    "write_manifest",
]
