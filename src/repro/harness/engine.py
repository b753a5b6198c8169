"""Parallel experiment engine: evaluate plans over a process pool.

The engine takes an :class:`~repro.harness.plans.ExperimentPlan`, groups
its cells by the trace they replay -- the canonical trace-source spec
each :class:`~repro.harness.plans.Cell` names (``kernel:5:n=200``,
``branchy:seed=7:n=2000``) -- evaluates every group, in-process for
``workers=1`` and over a ``ProcessPoolExecutor`` otherwise, and merges
the per-cell values back into a :class:`~repro.harness.tables.ResultTable`.
All cells naming one trace source -- simulator and limits cells alike --
form one sweep group, and every group goes through :func:`evaluate_group`.

Determinism: cell values depend only on the cell (trace content and
machine timing are fully deterministic), and the merge harmonic-means
grouped values in *plan order*, never in completion order.  Parallel
output is therefore bit-identical to serial output.

Persistence: when given a :class:`~repro.trace.DiskCache`, a group reads
its source's result segment once, looks every cell up in it, computes
only the misses and merges them back with one segment write.  Segments
and traces are keyed by the model fingerprint
(:func:`~repro.trace.diskcache.model_fingerprint`), and a cell's key
names its resolved latencies rather than a config name, so a model edit
can never be answered from an older entry.  A corrupted or missing
entry is indistinguishable from a cold cache -- it only costs time (and
is counted: corruption rebuilds surface in the metrics and the footer).
``file:`` sources never touch the DiskCache: the file can change.

Observability: the sweep group is also the unit of report.  Every
evaluation aggregates structured metrics (:mod:`repro.obs.metrics`) --
per-group wall time and queue wait, cache hit/miss/corruption counts,
per-worker utilization, and the ``sim.*`` telemetry summed once per
group -- and, with ``observe=True``, records a span trace (plan -> one
``sweep:<source>`` per group -> lookup, resolve, replay/limits, store)
and writes a durable run manifest next to the cache entries
(:mod:`repro.obs.manifest`).  Workers ship their measurements back
inside one :class:`GroupOutcome` per group (plain picklable data); the
parent merges, so no cross-process state is ever shared.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from datetime import datetime, timezone
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import config_by_name, fastpath
from ..core.registry import build_simulator
from ..isa import FunctionalUnit
from ..limits import compute_limits
from ..obs import (
    TELEMETRY_PREFIX,
    MetricsRegistry,
    RunManifest,
    Tracer,
    current_git_sha,
    new_run_id,
    write_manifest,
)
from ..trace import GLOBAL_TRACE_CACHE, DiskCache, Trace, default_cache_dir
from ..trace.diskcache import model_fingerprint
from ..trace.sources import (
    canonical_trace_spec,
    parse_trace_spec,
    trace_source,
)
from .aggregate import arithmetic_mean, harmonic_mean
from .plans import Cell, ExperimentPlan
from .progress import ProgressCallback, ProgressEvent
from .tables import ResultTable

#: DiskCache counter key -> metric name published per group.
_CACHE_METRIC_NAMES = {
    "trace_hits": "cache.trace.hits",
    "trace_misses": "cache.trace.misses",
    "trace_corruptions": "cache.trace.corruptions",
    "result_hits": "cache.result.hits",
    "result_misses": "cache.result.misses",
    "result_corruptions": "cache.result.corruptions",
}

def _fastpath_deltas(
    before: Mapping[str, int], after: Mapping[str, int]
) -> Dict[str, float]:
    """Non-zero ``fastpath.stats()`` deltas as ``fastpath.*`` metrics.

    Every counter the stats expose is published -- including the
    run keys (``python.fast_runs``, ``python.reused_runs``, ...), so
    manifests attribute fast runs to the loop that served them.
    """
    deltas: Dict[str, float] = {}
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if delta:
            deltas[f"fastpath.{key}"] = float(delta)
    return deltas


def _cache_deltas(
    cache: Optional[DiskCache], before: Optional[Mapping[str, int]]
) -> Dict[str, float]:
    """Non-zero DiskCache counter deltas since *before* as ``cache.*``."""
    if cache is None or before is None:
        return {}
    after = cache.counters()
    deltas: Dict[str, float] = {}
    for key, name in _CACHE_METRIC_NAMES.items():
        delta = after.get(key, 0) - before.get(key, 0)
        if delta:
            deltas[name] = float(delta)
    return deltas


def _sim_metrics(detail: Mapping[str, float]) -> Dict[str, float]:
    """A group's summed ``tlm.*`` detail entries as ``sim.*`` metrics.

    The rename marks the aggregation boundary: per-replay telemetry
    (``tlm.stall.RAW`` on one result) becomes a run-level counter
    (``sim.stall.RAW`` summed over every cell), alongside the
    ``cache.*`` / ``fastpath.*`` counters in manifests and
    ``repro stats``.
    """
    plen = len(TELEMETRY_PREFIX)
    return {
        "sim." + key[plen:]: value
        for key, value in detail.items()
        if key.startswith(TELEMETRY_PREFIX)
    }


def default_workers() -> int:
    """Default fan-out width: one worker per CPU."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------

def trace_key(source: str) -> Dict[str, Any]:
    """Identity of a resolved trace: its canonical trace-source spec
    under the current model fingerprint."""
    return {"kind": "trace", "source": source, "model": model_fingerprint()}


def segment_key(source: str) -> Dict[str, Any]:
    """Identity of the result segment that holds every cell of *source*."""
    return {"kind": "segment", "source": source, "model": model_fingerprint()}


def timing_key(config: str) -> str:
    """The resolved timing of a config name, as a cell-key component.

    Memory and branch latency plus every other functional unit's
    latency, read from the latency table at call time:
    ``M11BR5`` -> ``m11.b5.fu2.6.3.1.2.3.6.7.14.1``.
    """
    resolved = config_by_name(config)
    latencies = resolved.latencies
    fixed = ".".join(
        str(latencies.latency(unit))
        for unit in FunctionalUnit
        if not (unit.is_memory or unit.is_branch)
    )
    return f"m{resolved.memory_latency}.b{resolved.branch_latency}.fu{fixed}"


def cell_key(cell: Cell, timing: Optional[str] = None) -> str:
    """One cell's key inside its source's segment (never whitespace).

    The machine spec, the resolved timing (:func:`timing_key`, not the
    config *name*) and the serial flag.  Table, row and column are not
    part of it, so a table cell and an explorer or sweep cell naming
    the same (source, machine, timing, serial) share one entry.
    *timing* saves recomputing ``timing_key(cell.config)``.
    """
    if timing is None:
        timing = timing_key(cell.config)
    machine = "".join(cell.machine.split())
    return f"{machine}|{timing}|s{int(cell.serial)}"


# ----------------------------------------------------------------------
# Trace resolution: the process-wide trace memo, then the DiskCache,
# then capture
# ----------------------------------------------------------------------

#: Per-process DiskCache handle, set by the pool initializer.
_WORKER_CACHE: Optional[DiskCache] = None


def _pool_init(cache_dir: Optional[str]) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = DiskCache(cache_dir) if cache_dir is not None else None


def clear_process_memo() -> None:
    """Forget this process's in-memory traces (tests use this)."""
    GLOBAL_TRACE_CACHE.clear()


def _cacheable(source: str, cache):
    """*cache* (a DiskCache or the trace memo), or None for ``file:``
    sources, however spelled (the file can change)."""
    return None if parse_trace_spec(source).head == "file" else cache


def resolve_trace(
    source: str, cache: Optional[DiskCache] = None
) -> Tuple[Trace, str]:
    """The trace of a source spec, and where it came from.

    Looks in :data:`~repro.trace.GLOBAL_TRACE_CACHE` -- the one
    in-process trace memo, keyed by
    :func:`~repro.trace.sources.canonical_trace_spec` and shared with
    :meth:`~repro.kernels.KernelInstance.trace` -- then the DiskCache,
    and only then captures through the source registry (kernels verify
    against their NumPy reference there).  With the default ``fork``
    start method pool workers inherit a snapshot of the memo and extend
    their own copy.  ``file:`` sources skip the memo like the DiskCache:
    the file can change between calls.  Returns ``(trace, "memo" |
    "disk" | "built")``.
    """
    if _cacheable(source, GLOBAL_TRACE_CACHE) is None:
        return trace_source(source), "built"
    source = canonical_trace_spec(source)
    trace = GLOBAL_TRACE_CACHE.peek(source)
    if trace is not None:
        return trace, "memo"
    trace = cache.load_trace(trace_key(source)) if cache is not None else None
    origin = "disk"
    if trace is None:
        trace, origin = trace_source(source), "built"
        if cache is not None:
            cache.store_trace(trace_key(source), trace)
    return GLOBAL_TRACE_CACHE.get_or_build(source, lambda: trace), origin


# ----------------------------------------------------------------------
# Group evaluation (runs in workers; everything here must be picklable)
# ----------------------------------------------------------------------

#: A span timed in a worker: ``(name, start, end, parent, attrs)`` where
#: *parent* indexes an earlier span of the same tuple, or is -1 for the
#: plan root.
SpanRecord = Tuple[str, float, float, int, Mapping[str, Any]]


@dataclass(frozen=True)
class GroupOutcome:
    """What evaluating one sweep group produced (plus bookkeeping).

    ``values[i]`` is the value mapping of the cell at plan position
    ``indices[i]`` (plan order).  ``seconds`` is the group's measured
    time in its worker -- the length of its ``sweep:`` span -- and
    ``hits`` counts the cells served from the result segment.
    ``trace_source`` says where the group's trace came from (``"memo"``,
    ``"disk"`` or ``"built"``), or ``"cached-result"`` when no cell
    needed it.  Span endpoints are ``time.monotonic()`` readings; with
    the default ``fork`` start method that clock is system-wide, so the
    parent can nest worker spans directly under its own run trace.
    """

    source: str
    indices: Tuple[int, ...]
    values: Tuple[Mapping[str, float], ...]
    seconds: float
    hits: int
    trace_source: str
    pid: int = 0
    queue_wait: float = 0.0
    spans: Tuple[SpanRecord, ...] = ()
    metrics: Mapping[str, float] = field(default_factory=dict)

    @property
    def cells(self) -> int:
        return len(self.indices)


def _values_from_record(cell: Cell, record: Mapping[str, Any]) -> Dict[str, float]:
    if cell.is_limits:
        limits = record["limits"]
        return {column: float(limits[column]) for column in cell.columns}
    if cell.metric != "rate":
        # Detail-backed metric (prediction_accuracy, vp_accuracy, ...).
        # A record missing the key raises KeyError, which the lookup
        # treats exactly like a corrupt entry: recompute and overwrite.
        detail = record.get("detail") or {}
        return {cell.columns[0]: float(detail[cell.metric])}
    rate = int(record["instructions"]) / int(record["cycles"])
    return {cell.columns[0]: rate}


_NUMBER_TYPES = frozenset((int, float, bool))


def _decode(
    cell: Cell, record: Mapping[str, Any]
) -> Tuple[Dict[str, float], Mapping[str, float]]:
    """A stored record's values for *cell*, and its numeric detail."""
    values = _values_from_record(cell, record)
    detail = record.get("detail") or {}
    if not isinstance(detail, dict) or not _NUMBER_TYPES.issuperset(
        map(type, detail.values())
    ):
        raise TypeError("record detail must map names to numbers")
    return values, detail


def _compute_records(
    trace: Trace, cells: Sequence[Cell], keys: Sequence[str]
) -> Tuple[List[Tuple[str, float, float]], List[Dict[str, Any]]]:
    """Work phases ``(span name, start, end)`` and one record per cell.

    Cells that share a cell key (*keys*, one per cell) are one
    simulation -- a rate cell and an accuracy cell over the same
    machine, say -- so each distinct key is computed once and its cells
    share the record.  The simulator keys share one
    :func:`repro.core.fastpath.simulate_sweep` call (the ``replay``
    phase); each limits key is one limits computation (together the
    ``limits`` phase).  A plan replays each trace in one group, so the
    replay phase ends by dropping the plans memoised on the compiled
    trace (``CompiledTrace.derived``): the trace memo keeps the trace
    and its compilation, not them.  A trace no replay compiled (the
    fast path off) stays uncompiled.
    """
    first: Dict[str, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    distinct = list(first.values())
    computed: Dict[str, Dict[str, Any]] = {}
    phases: List[Tuple[str, float, float]] = []
    sims = [i for i in distinct if not cells[i].is_limits]
    if sims:
        start = time.monotonic()
        items = [
            (build_simulator(cells[i].machine), config_by_name(cells[i].config))
            for i in sims
        ]
        for i, result in zip(sims, fastpath.simulate_sweep(trace, items)):
            computed[keys[i]] = {
                "trace": result.trace_name,
                "simulator": result.simulator,
                "instructions": result.instructions,
                "cycles": result.cycles,
                "detail": dict(result.detail or {}),
            }
        fastpath.drop_derived(trace)
        phases.append(("replay", start, time.monotonic()))
    if len(sims) < len(distinct):
        start = time.monotonic()
        for i in distinct:
            cell = cells[i]
            if not cell.is_limits:
                continue
            report = compute_limits(
                trace, config_by_name(cell.config), serial=cell.serial
            )
            computed[keys[i]] = {
                "limits": {
                    "pseudo-dataflow": report.pseudo_dataflow_rate,
                    "resource": report.resource_rate,
                    "actual": report.actual_rate,
                }
            }
        phases.append(("limits", start, time.monotonic()))
    return phases, [computed[key] for key in keys]


def evaluate_group(
    group: Sequence[Tuple[int, Cell]],
    cache: Optional[DiskCache],
    *,
    enqueued: Optional[float] = None,
) -> GroupOutcome:
    """Evaluate ``(index, cell)`` pairs that share one trace source.

    With *cache*, the source's segment is read once and every cell is
    looked up in it (one counted hit or miss each).  The misses share one
    trace resolution, one :func:`repro.core.fastpath.simulate_sweep` call
    for the simulator cells -- gating is per sweep member, so a
    fast-path-disabled member still runs its reference loop and the
    table stays bit-identical to per-cell evaluation -- and one limits
    computation per limits cell; misses that share a cell key share one
    computation.  Their records go back in one segment write.

    The group is one ``sweep:<source>`` span with ``cells`` and ``hits``
    attributes (plus ``trace_source`` when it computed).  A group served
    entirely from its segment has no children; otherwise the children
    are ``lookup`` (with a cache), ``resolve``, ``replay`` and/or
    ``limits``, and ``store`` (with a cache).  The returned
    :class:`GroupOutcome` carries the span, the group's measured
    seconds, its cache/fast-path metric deltas and its ``tlm.*``
    telemetry -- summed over every cell, then renamed to ``sim.*`` once.

    *enqueued* is the parent's ``time.monotonic()`` reading when the
    group was handed to the pool; the difference to the worker's start
    is the group's queue wait.
    """
    source = group[0][1].source
    cache = _cacheable(source, cache)
    pid = os.getpid()
    started = time.monotonic()
    queue_wait = max(0.0, started - enqueued) if enqueued is not None else 0.0
    before = cache.counters() if cache is not None else None
    values: List[Optional[Mapping[str, float]]] = [None] * len(group)
    # Every cell's detail, summed per key; _sim_metrics keeps ``tlm.*``.
    detail_totals: Dict[str, float] = {}
    timings: Dict[str, str] = {}
    keys: List[str] = []
    for _, cell in group:
        timing = timings.get(cell.config)
        if timing is None:
            timing = timings[cell.config] = timing_key(cell.config)
        keys.append(cell_key(cell, timing))
    if cache is not None:
        segment = cache.read_segment(segment_key(source))
        for position, (_, cell) in enumerate(group):
            hit = segment.lookup(
                keys[position], functools.partial(_decode, cell)
            )
            if hit is not None:
                values[position], detail = hit
                for key, value in detail.items():
                    detail_totals[key] = detail_totals.get(key, 0.0) + value
    pending = [position for position, value in enumerate(values) if value is None]
    looked_up = time.monotonic()

    hits = len(group) - len(pending)
    attrs: Dict[str, Any] = {"cells": len(group), "hits": hits}
    children: List[Tuple[str, float, float]] = []
    metrics: Dict[str, float] = {}
    trace_from = "cached-result"
    if pending:
        if cache is not None:
            children.append(("lookup", started, looked_up))
        fastpath_before = fastpath.stats()
        trace, trace_from = resolve_trace(source, cache)
        resolved = time.monotonic()
        children.append(("resolve", looked_up, resolved))
        cells = [group[position][1] for position in pending]
        phases, records = _compute_records(
            trace, cells, [keys[position] for position in pending]
        )
        children.extend(phases)
        for position, cell, record in zip(pending, cells, records):
            values[position] = _values_from_record(cell, record)
            for key, value in record.get("detail", {}).items():
                detail_totals[key] = detail_totals.get(key, 0.0) + value
        if cache is not None:
            storing = time.monotonic()
            cache.store_segment(segment_key(source), {
                keys[position]: record
                for position, record in zip(pending, records)
            })
            children.append(("store", storing, time.monotonic()))
        metrics.update(_fastpath_deltas(fastpath_before, fastpath.stats()))
        attrs["trace_source"] = trace_from
    metrics.update(_cache_deltas(cache, before))
    metrics.update(_sim_metrics(detail_totals))
    ended = time.monotonic()
    return GroupOutcome(
        source=source,
        indices=tuple(index for index, _ in group),
        values=tuple(values),
        seconds=ended - started,
        hits=hits,
        trace_source=trace_from,
        pid=pid,
        queue_wait=queue_wait,
        spans=((f"sweep:{source}", started, ended, -1, attrs),) + tuple(
            (name, start, end, 0, {}) for name, start, end in children
        ),
        metrics=metrics,
    )


def _evaluate_in_pool(
    payload: Tuple[List[Tuple[int, Cell]], float]
) -> GroupOutcome:
    group, enqueued = payload
    return evaluate_group(group, _WORKER_CACHE, enqueued=enqueued)


# ----------------------------------------------------------------------
# Deterministic merge + stats
# ----------------------------------------------------------------------

@dataclass
class EngineStats:
    """Run accounting: the footer of every engine invocation."""

    table_id: str
    cells: int
    workers: int
    groups: int = 0
    wall_seconds: float = 0.0
    group_seconds: float = 0.0
    max_group_seconds: float = 0.0
    result_hits: int = 0
    traces_built: int = 0
    traces_loaded: int = 0
    cache_enabled: bool = False
    corrupt_rebuilds: int = 0
    queue_wait_seconds: float = 0.0
    worker_utilization: Dict[int, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def result_misses(self) -> int:
        return self.cells - self.result_hits

    @property
    def cache_hit_rate(self) -> Optional[float]:
        return self.result_hits / self.cells if self.cells else None

    @property
    def mean_worker_utilization(self) -> float:
        if not self.worker_utilization:
            return 0.0
        values = self.worker_utilization.values()
        return sum(values) / len(values)

    def footer(self) -> str:
        if self.cache_enabled:
            cache = (
                f"result cache {self.result_hits} hit / "
                f"{self.result_misses} miss; traces {self.traces_built} "
                f"built, {self.traces_loaded} loaded"
            )
            if self.corrupt_rebuilds:
                cache += f"; {self.corrupt_rebuilds} corrupt rebuilt"
        else:
            cache = "cache disabled"
        return (
            f"[{self.table_id}: {self.cells} cells in {self.groups} groups, "
            f"{self.wall_seconds:.1f}s wall / {self.group_seconds:.1f}s "
            f"group time (max {self.max_group_seconds:.2f}s), "
            f"workers={self.workers}; {cache}]"
        )


@dataclass(frozen=True)
class PlanRun:
    """A finished plan evaluation: the table plus its run statistics."""

    table: ResultTable
    stats: EngineStats
    manifest: Optional[RunManifest] = None


def merge_outcomes(
    plan: ExperimentPlan, outcomes: Sequence[GroupOutcome]
) -> ResultTable:
    """Assemble the table from group outcomes, in plan order.

    Grouped values are harmonic-meaned in cell order (class loop order),
    matching the paper's per-class aggregation exactly -- and making the
    merge independent of completion order.  Columns named in the plan's
    ``aggregators`` fold with the arithmetic mean instead (accuracies);
    with ``speedup_base`` set, the ``speedup_columns`` means are divided
    by the row's base-column mean after folding.
    """
    cells = sorted(
        (pair for outcome in outcomes
         for pair in zip(outcome.indices, outcome.values)),
        key=lambda pair: pair[0],
    )
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for index, cell_values in cells:
        row = plan.cells[index].row
        for column, value in cell_values.items():
            grouped.setdefault((row, column), []).append(value)
    folds = dict(plan.aggregators)
    rows = []
    for row in plan.rows:
        values = {}
        for column in plan.columns:
            if (row, column) not in grouped:
                continue
            samples = grouped[(row, column)]
            if folds.get(column) == "amean":
                values[column] = arithmetic_mean(samples)
            else:
                values[column] = harmonic_mean(samples)
        if plan.speedup_base is not None:
            base = values.get(plan.speedup_base)
            if base:
                for column in plan.speedup_columns:
                    if column in values:
                        values[column] = values[column] / base
        rows.append((row, values))
    return ResultTable(
        table_id=plan.table_id,
        title=plan.title,
        columns=plan.columns,
        rows=tuple(rows),
    )


def _worker_queue_waits(
    outcomes: Sequence[GroupOutcome],
) -> List[GroupOutcome]:
    """*outcomes* with each group's queue wait measured from the later
    of its submit and the end of its worker's previous group.

    Every group is submitted at once, so the wait since submit also
    counts the groups that ran ahead of it on the same worker.  The
    submit is the ``sweep:`` span's start minus the recorded wait; the
    previous group's end is its own ``sweep:`` span's end.
    """
    previous_end: Dict[int, float] = {}
    waits: Dict[int, float] = {}
    for position, outcome in sorted(
        enumerate(outcomes), key=lambda item: item[1].spans[0][1]
    ):
        _, started, ended, _, _ = outcome.spans[0]
        ready = max(started - outcome.queue_wait,
                    previous_end.get(outcome.pid, 0.0))
        waits[position] = max(0.0, started - ready)
        previous_end[outcome.pid] = ended
    return [
        replace(outcome, queue_wait=waits[position])
        for position, outcome in enumerate(outcomes)
    ]


def _busy_seconds(outcomes: Sequence[GroupOutcome]) -> Dict[int, float]:
    busy: Dict[int, float] = {}
    for outcome in outcomes:
        busy[outcome.pid] = busy.get(outcome.pid, 0.0) + outcome.seconds
    return busy


def _aggregate_metrics(
    outcomes: Sequence[GroupOutcome],
    wall_seconds: float,
    workers: int,
    cache_enabled: bool,
) -> MetricsRegistry:
    """Fold the groups' measurements into one registry."""
    registry = MetricsRegistry()
    registry.inc("engine.cells.total", sum(o.cells for o in outcomes))
    registry.inc("engine.cells.result_hits", sum(o.hits for o in outcomes))
    registry.set_gauge("engine.workers", workers)
    registry.set_gauge("engine.wall_seconds", wall_seconds)
    registry.set_gauge("engine.cache_enabled", 1.0 if cache_enabled else 0.0)
    registry.inc(
        "engine.group.seconds_total", sum(o.seconds for o in outcomes)
    )
    registry.inc(
        "engine.queue.wait_seconds_total", sum(o.queue_wait for o in outcomes)
    )
    group_seconds = registry.histogram("engine.group.seconds")
    queue_wait = registry.histogram("engine.queue.wait_seconds")
    for outcome in outcomes:
        for name, value in outcome.metrics.items():
            registry.inc(name, value)
        group_seconds.observe(outcome.seconds)
        queue_wait.observe(outcome.queue_wait)
    for pid, busy in sorted(_busy_seconds(outcomes).items()):
        utilization = busy / wall_seconds if wall_seconds > 0 else 0.0
        registry.set_gauge(f"worker.{pid}.busy_seconds", busy)
        registry.set_gauge(f"worker.{pid}.utilization", utilization)
    return registry


def _build_manifest(
    plan: ExperimentPlan,
    outcomes: Sequence[GroupOutcome],
    stats: EngineStats,
    registry: MetricsRegistry,
    run_started: float,
    run_ended: float,
) -> RunManifest:
    """Assemble the span trace and the durable run manifest.

    The tree is plan -> one ``sweep:<source>`` span per group ->
    lookup/resolve/replay/limits/store (see :func:`evaluate_group`).
    """
    tracer = Tracer()
    root = tracer.adopt(
        f"plan:{plan.table_id}", run_started, run_ended,
        pid=os.getpid(), cells=len(plan.cells), workers=stats.workers,
    )
    for outcome in sorted(outcomes, key=lambda o: o.indices[0]):
        adopted = []
        for name, start, end, parent, attrs in outcome.spans:
            adopted.append(tracer.adopt(
                name, start, end,
                parent_id=(
                    adopted[parent].span_id if parent >= 0 else root.span_id
                ),
                pid=outcome.pid,
                **attrs,
            ))
    return RunManifest(
        run_id=new_run_id(plan.table_id),
        table_id=plan.table_id,
        # Microsecond resolution so back-to-back runs still list in
        # creation order (list_manifests sorts on this field).
        created=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
        git_sha=current_git_sha(),
        config={
            "workers": stats.workers,
            "cache_enabled": stats.cache_enabled,
            "cells": stats.cells,
            "model": model_fingerprint(),
        },
        timings={
            "wall_seconds": stats.wall_seconds,
            "group_seconds": stats.group_seconds,
            "max_group_seconds": stats.max_group_seconds,
            "queue_wait_seconds": stats.queue_wait_seconds,
        },
        metrics=registry.snapshot(),
        spans=tracer.to_payload(),
    )


def _sweep_groups(plan: ExperimentPlan) -> List[List[Tuple[int, Cell]]]:
    """Partition plan cells into one group per trace source.

    Simulator and limits cells naming the same source share a group, so
    within a plan each source's segment has exactly one reader-writer.
    Groups come in first-appearance order; the deterministic merge sorts
    by cell index, so grouping never changes the table.
    """
    by_source: Dict[str, List[Tuple[int, Cell]]] = {}
    for index, cell in enumerate(plan.cells):
        by_source.setdefault(cell.source, []).append((index, cell))
    return list(by_source.values())


def run_plan(
    plan: ExperimentPlan,
    *,
    workers: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    observe: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> PlanRun:
    """Evaluate every cell of *plan* and merge deterministically.

    ``workers=1`` (or a single-group plan) runs in-process; anything
    larger fans out over a ``ProcessPoolExecutor``.  The cells of one
    trace source are one group: one segment read, one fast-path sweep
    for the simulator misses (see :mod:`repro.core.fastpath`), one
    segment write -- per-cell cache lookups and gating are preserved,
    so the table is bit-identical to per-cell evaluation.
    *cache* is optional: without it the engine is a pure compute path.
    With ``observe=True`` the run also records a span trace and writes a
    :class:`~repro.obs.manifest.RunManifest` under the cache root
    (``<root>/manifests``), returned on the :class:`PlanRun`.

    *progress* receives one :class:`~repro.harness.progress.ProgressEvent`
    per completed group, in the parent process, as results arrive
    (completion order).  The merge stays deterministic regardless.
    """
    workers = default_workers() if workers is None else max(1, int(workers))
    run_started = time.monotonic()
    start = time.perf_counter()
    groups = _sweep_groups(plan)
    outcomes: List[GroupOutcome] = []

    def collect(outcome: GroupOutcome) -> None:
        outcomes.append(outcome)
        if progress is not None:
            progress(ProgressEvent(
                table_id=plan.table_id,
                completed=len(outcomes),
                total=len(groups),
                source=outcome.source,
                cells=outcome.cells,
                hits=outcome.hits,
                seconds=outcome.seconds,
                pid=outcome.pid,
            ))

    if workers == 1 or len(groups) <= 1:
        for group in groups:
            collect(evaluate_group(group, cache, enqueued=time.monotonic()))
    else:
        cache_dir = str(cache.root) if cache is not None else None
        with ProcessPoolExecutor(
            max_workers=min(workers, len(groups)),
            initializer=_pool_init,
            initargs=(cache_dir,),
        ) as pool:
            # One future per group, collected as they complete, so the
            # progress stream ticks while the pool is still busy.
            futures = [
                pool.submit(_evaluate_in_pool, (group, time.monotonic()))
                for group in groups
            ]
            for future in as_completed(futures):
                collect(future.result())

    outcomes = _worker_queue_waits(outcomes)
    table = merge_outcomes(plan, outcomes)
    run_ended = time.monotonic()
    wall_seconds = time.perf_counter() - start
    registry = _aggregate_metrics(
        outcomes, wall_seconds, workers, cache is not None
    )
    stats = EngineStats(
        table_id=plan.table_id,
        cells=len(plan.cells),
        workers=workers,
        groups=len(outcomes),
        wall_seconds=wall_seconds,
        group_seconds=sum(o.seconds for o in outcomes),
        max_group_seconds=max((o.seconds for o in outcomes), default=0.0),
        result_hits=sum(o.hits for o in outcomes),
        traces_built=sum(1 for o in outcomes if o.trace_source == "built"),
        traces_loaded=sum(1 for o in outcomes if o.trace_source == "disk"),
        cache_enabled=cache is not None,
        corrupt_rebuilds=int(
            registry.value("cache.result.corruptions")
            + registry.value("cache.trace.corruptions")
        ),
        queue_wait_seconds=sum(o.queue_wait for o in outcomes),
        worker_utilization={
            pid: busy / wall_seconds if wall_seconds > 0 else 0.0
            for pid, busy in _busy_seconds(outcomes).items()
        },
        metrics=registry.snapshot(),
    )

    manifest: Optional[RunManifest] = None
    if observe:
        manifest = _build_manifest(
            plan, outcomes, stats, registry, run_started, run_ended
        )
        root = cache.root if cache is not None else default_cache_dir()
        write_manifest(manifest, root)
    return PlanRun(table=table, stats=stats, manifest=manifest)
