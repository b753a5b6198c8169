"""Parallel experiment engine: evaluate plans over a process pool.

The engine takes an :class:`~repro.harness.plans.ExperimentPlan`, groups
its cells by the trace they replay -- the canonical trace-source spec
each :class:`~repro.harness.plans.Cell` names (``kernel:5:n=200``,
``branchy:seed=7:n=2000``) -- evaluates every group, in-process for
``workers=1`` and over a ``ProcessPoolExecutor`` otherwise, and merges
the per-cell values back into a :class:`~repro.harness.tables.ResultTable`.
Simulator cells sharing a trace form one sweep group; a limits cell is a
group of one.  Every group goes through :func:`evaluate_group`.

Determinism: cell values depend only on the cell (trace content and
machine timing are fully deterministic), and the merge harmonic-means
grouped values in *plan order*, never in completion order.  Parallel
output is therefore bit-identical to serial output.

Persistence: when given a :class:`~repro.trace.DiskCache`, workers look
up each cell result (and each trace) by content hash before computing,
and store whatever they had to compute.  A corrupted or missing entry is
indistinguishable from a cold cache -- it only costs time (and is
counted: corruption rebuilds surface in the metrics and the footer).
``file:`` sources never touch the DiskCache: the file can change.

Observability: every evaluation aggregates structured metrics
(:mod:`repro.obs.metrics`) -- per-cell wall time, queue wait, cache
hit/miss/corruption counts, per-worker utilization -- and, with
``observe=True``, records a span trace (plan -> sweep/cell ->
resolve/replay) and writes a durable run manifest next to the cache
entries (:mod:`repro.obs.manifest`).  Workers ship their measurements
back inside each :class:`CellOutcome` (plain picklable data); the parent
merges, so no cross-process state is ever shared.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from datetime import datetime, timezone
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import config_by_name, fastpath
from ..core.registry import build_simulator
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
from ..trace import DiskCache, Trace, default_cache_dir
from ..trace.sources import trace_source
from .aggregate import arithmetic_mean, harmonic_mean
from .plans import Cell, ExperimentPlan
from .progress import ProgressCallback, ProgressEvent
from .tables import ResultTable

#: Bump to invalidate previously stored cell results after a change to
#: the timing models or the record schema.  v2: cell records carry the
#: result's ``detail`` mapping (fast-path ``tlm.*`` telemetry included).
RESULT_SCHEMA_VERSION = 2

#: DiskCache counter key -> metric name published per cell.
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
    per-route keys (``python.fast_runs``, ``batch.sweeps``, ...), so
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


def _add_into(total: Dict[str, float], more: Mapping[str, float]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0.0) + value


def _telemetry_metrics(record: Mapping[str, Any]) -> Dict[str, float]:
    """A cell record's ``tlm.*`` detail entries as ``sim.*`` metrics.

    The rename marks the aggregation boundary: per-replay telemetry
    (``tlm.stall.RAW`` on one result) becomes a run-level counter
    (``sim.stall.RAW`` summed over every cell), alongside the
    ``cache.*`` / ``fastpath.*`` counters in manifests and
    ``repro stats``.
    """
    detail = record.get("detail")
    if not detail:
        return {}
    plen = len(TELEMETRY_PREFIX)
    return {
        "sim." + key[plen:]: float(value)
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
    """Identity of a resolved trace: its canonical trace-source spec."""
    return {"kind": "trace", "source": source}


def cell_key(cell: Cell) -> Dict[str, Any]:
    """Identity of one cell result (table/row/column independent).

    A table cell and an explorer cell naming the same (source, machine,
    config) share one entry.
    """
    return {
        "kind": "cell",
        "source": cell.source,
        "machine": cell.machine,
        "config": cell.config,
        "serial": cell.serial,
        "schema": RESULT_SCHEMA_VERSION,
    }


# ----------------------------------------------------------------------
# Trace resolution: one in-process memo, then the DiskCache, then capture
# ----------------------------------------------------------------------

#: Per-process trace memo: canonical trace-source spec -> Trace.  With the
#: default ``fork`` start method child workers inherit a snapshot and then
#: extend their own copy.
_TRACE_MEMO: Dict[str, Trace] = {}

#: Per-process DiskCache handle, set by the pool initializer.
_WORKER_CACHE: Optional[DiskCache] = None


def _pool_init(cache_dir: Optional[str]) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = DiskCache(cache_dir) if cache_dir is not None else None


def clear_process_memo() -> None:
    """Forget this process's in-memory trace memo (tests use this)."""
    _TRACE_MEMO.clear()


def _cacheable(source: str, cache: Optional[DiskCache]) -> Optional[DiskCache]:
    """*cache*, or None for ``file:`` sources (the file can change)."""
    return None if source.startswith("file:") else cache


def resolve_trace(
    source: str, cache: Optional[DiskCache] = None
) -> Tuple[Trace, str]:
    """The trace of a canonical source spec, and where it came from.

    Looks in the process memo, then the DiskCache, and only then captures
    through the source registry (kernels verify against their NumPy
    reference there).  Returns ``(trace, "memo" | "disk" | "built")``.
    """
    trace = _TRACE_MEMO.get(source)
    if trace is not None:
        return trace, "memo"
    cache = _cacheable(source, cache)
    if cache is not None:
        trace = cache.load_trace(trace_key(source))
        if trace is not None:
            _TRACE_MEMO[source] = trace
            return trace, "disk"
    trace = trace_source(source)
    _TRACE_MEMO[source] = trace
    if cache is not None:
        cache.store_trace(trace_key(source), trace)
    return trace, "built"


# ----------------------------------------------------------------------
# Group evaluation (runs in workers; everything here must be picklable)
# ----------------------------------------------------------------------

#: A span timed in a worker: ``(name, start, end, parent, attrs)`` where
#: *parent* indexes an earlier span of the same tuple, or is -1 for the
#: plan root.
SpanRecord = Tuple[str, float, float, int, Mapping[str, Any]]


@dataclass(frozen=True)
class CellOutcome:
    """What evaluating one cell produced (plus bookkeeping).

    ``started``/``ended`` and the span endpoints are ``time.monotonic()``
    readings; with the default ``fork`` start method that clock is
    system-wide, so the parent can nest worker spans directly under its
    own run trace.  A group's spans, and its shared metric deltas, ride
    on the outcome of its first computed cell.
    """

    index: int
    values: Mapping[str, float]
    seconds: float
    result_hit: bool
    trace_source: str  # "memo" | "disk" | "built" | "cached-result"
    pid: int = 0
    queue_wait: float = 0.0
    started: float = 0.0
    ended: float = 0.0
    spans: Tuple[SpanRecord, ...] = ()
    metrics: Mapping[str, float] = field(default_factory=dict)


def _values_from_record(cell: Cell, record: Mapping[str, Any]) -> Dict[str, float]:
    if cell.is_limits:
        limits = record["limits"]
        return {column: float(limits[column]) for column in cell.columns}
    if cell.metric != "rate":
        # Detail-backed metric (prediction_accuracy, vp_accuracy, ...).
        # A record missing the key raises KeyError, which the callers
        # treat exactly like a corrupt entry: recompute and overwrite.
        detail = record.get("detail") or {}
        return {cell.columns[0]: float(detail[cell.metric])}
    rate = int(record["instructions"]) / int(record["cycles"])
    return {cell.columns[0]: rate}


def _compute_records(
    trace: Trace, cells: Sequence[Cell]
) -> Tuple[str, List[Dict[str, Any]]]:
    """``(work span name, one record per cell)`` for cells sharing *trace*."""
    if cells[0].is_limits:
        records = []
        for cell in cells:
            report = compute_limits(
                trace, config_by_name(cell.config), serial=cell.serial
            )
            records.append({
                "limits": {
                    "pseudo-dataflow": report.pseudo_dataflow_rate,
                    "resource": report.resource_rate,
                    "actual": report.actual_rate,
                }
            })
        return "limits", records
    items = [
        (build_simulator(cell.machine), config_by_name(cell.config))
        for cell in cells
    ]
    results = fastpath.simulate_sweep(trace, items)
    return "replay", [
        {
            "trace": result.trace_name,
            "simulator": result.simulator,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "detail": dict(result.detail or {}),
        }
        for result in results
    ]


def evaluate_group(
    group: Sequence[Tuple[int, Cell]],
    cache: Optional[DiskCache],
    *,
    enqueued: Optional[float] = None,
) -> List[CellOutcome]:
    """Evaluate ``(index, cell)`` pairs that share one trace.

    Every cell is first looked up in *cache*; a hit becomes an outcome
    with its own lookup interval.  The misses share one trace resolution
    and one :func:`repro.core.fastpath.simulate_sweep` call (or one
    limits computation each) -- gating is per sweep
    member, so a hooked or fast-path-disabled member still runs its
    reference loop and the table stays bit-identical to per-cell
    evaluation.  The computed part is recorded as one
    ``sweep:<source>`` span with ``resolve`` and ``replay``/``limits``
    children; its wall time is split evenly across the computed cells.

    *enqueued* is the parent's ``time.monotonic()`` reading when the
    group was handed to the pool; the difference to the worker's start
    is the group's queue wait, charged to its first outcome.
    """
    source = group[0][1].source
    cache = _cacheable(source, cache)
    pid = os.getpid()
    queue_wait = (
        max(0.0, time.monotonic() - enqueued) if enqueued is not None else 0.0
    )
    outcomes: List[CellOutcome] = []
    pending: List[Tuple[int, Cell]] = []
    lookup_metrics: Dict[str, float] = {}
    for index, cell in group:
        started = time.monotonic()
        before = cache.counters() if cache is not None else None
        record = cache.load_result(cell_key(cell)) if cache is not None else None
        values = None
        if record is not None:
            try:
                values = _values_from_record(cell, record)
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                # A record that does not decode cleanly is treated
                # exactly like a miss: recompute and overwrite it.
                values = None
        deltas = _cache_deltas(cache, before)
        if values is None:
            # A missed lookup's counters ride with the sweep metrics.
            _add_into(lookup_metrics, deltas)
            pending.append((index, cell))
            continue
        ended = time.monotonic()
        outcomes.append(CellOutcome(
            index=index,
            values=values,
            seconds=ended - started,
            result_hit=True,
            trace_source="cached-result",
            pid=pid,
            queue_wait=0.0 if outcomes else queue_wait,
            started=started,
            ended=ended,
            metrics={**deltas, **_telemetry_metrics(record)},
        ))
    if not pending:
        return outcomes

    started = time.monotonic()
    before = cache.counters() if cache is not None else None
    fastpath_before = fastpath.stats()
    trace, trace_from = resolve_trace(source, cache)
    resolved = time.monotonic()
    work, records = _compute_records(trace, [cell for _, cell in pending])
    computed = time.monotonic()
    metrics = dict(lookup_metrics)
    for (index, cell), record in zip(pending, records):
        if cache is not None:
            cache.store_result(cell_key(cell), record)
        _add_into(metrics, _telemetry_metrics(record))
    _add_into(metrics, _cache_deltas(cache, before))
    metrics.update(_fastpath_deltas(fastpath_before, fastpath.stats()))
    ended = time.monotonic()

    spans: Tuple[SpanRecord, ...] = (
        (f"sweep:{source}", started, ended, -1,
         {"cells": len(pending), "trace_source": trace_from}),
        ("resolve", started, resolved, 0, {}),
        (work, resolved, computed, 0, {}),
    )
    share = (ended - started) / len(pending)
    first = not outcomes
    for position, ((index, cell), record) in enumerate(zip(pending, records)):
        lead = position == 0
        outcomes.append(CellOutcome(
            index=index,
            values=_values_from_record(cell, record),
            seconds=share,
            result_hit=False,
            trace_source=trace_from if lead else "memo",
            pid=pid,
            queue_wait=queue_wait if lead and first else 0.0,
            started=started,
            ended=ended,
            spans=spans if lead else (),
            metrics=metrics if lead else {},
        ))
    return outcomes


def _evaluate_in_pool(
    payload: Tuple[List[Tuple[int, Cell]], float]
) -> List[CellOutcome]:
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
    wall_seconds: float = 0.0
    cell_seconds: float = 0.0
    max_cell_seconds: float = 0.0
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
            f"[{self.table_id}: {self.cells} cells in "
            f"{self.wall_seconds:.1f}s wall / {self.cell_seconds:.1f}s cell "
            f"time (max {self.max_cell_seconds:.2f}s), "
            f"workers={self.workers}; {cache}]"
        )


@dataclass(frozen=True)
class PlanRun:
    """A finished plan evaluation: the table plus its run statistics."""

    table: ResultTable
    stats: EngineStats
    manifest: Optional[RunManifest] = None


def merge_outcomes(
    plan: ExperimentPlan, outcomes: List[CellOutcome]
) -> ResultTable:
    """Assemble the table from cell outcomes, in plan order.

    Grouped values are harmonic-meaned in cell order (class loop order),
    matching the paper's per-class aggregation exactly -- and making the
    merge independent of completion order.  Columns named in the plan's
    ``aggregators`` fold with the arithmetic mean instead (accuracies);
    with ``speedup_base`` set, the ``speedup_columns`` means are divided
    by the row's base-column mean after folding.
    """
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for outcome in sorted(outcomes, key=lambda o: o.index):
        cell = plan.cells[outcome.index]
        for column, value in outcome.values.items():
            grouped.setdefault((cell.row, column), []).append(value)
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


def _busy_seconds(outcomes: List[CellOutcome]) -> Dict[int, float]:
    busy: Dict[int, float] = {}
    for outcome in outcomes:
        busy[outcome.pid] = busy.get(outcome.pid, 0.0) + outcome.seconds
    return busy


def _aggregate_metrics(
    outcomes: List[CellOutcome],
    wall_seconds: float,
    workers: int,
    cache_enabled: bool,
) -> MetricsRegistry:
    """Fold per-cell measurements into one run-level registry."""
    registry = MetricsRegistry()
    registry.inc("engine.cells.total", len(outcomes))
    registry.inc(
        "engine.cells.result_hits",
        sum(1 for o in outcomes if o.result_hit),
    )
    registry.set_gauge("engine.workers", workers)
    registry.set_gauge("engine.wall_seconds", wall_seconds)
    registry.set_gauge("engine.cache_enabled", 1.0 if cache_enabled else 0.0)
    for outcome in outcomes:
        for name, value in outcome.metrics.items():
            registry.inc(name, value)
        registry.inc("engine.cell.seconds_total", outcome.seconds)
        registry.inc("engine.queue.wait_seconds_total", outcome.queue_wait)
        registry.observe("engine.cell.seconds", outcome.seconds)
        registry.observe("engine.queue.wait_seconds", outcome.queue_wait)
    for pid, busy in sorted(_busy_seconds(outcomes).items()):
        utilization = busy / wall_seconds if wall_seconds > 0 else 0.0
        registry.set_gauge(f"worker.{pid}.busy_seconds", busy)
        registry.set_gauge(f"worker.{pid}.utilization", utilization)
    return registry


def _build_manifest(
    plan: ExperimentPlan,
    outcomes: List[CellOutcome],
    stats: EngineStats,
    registry: MetricsRegistry,
    run_started: float,
    run_ended: float,
) -> RunManifest:
    """Assemble the span trace and the durable run manifest.

    The tree is plan -> (one ``cell:`` span per cached hit, one
    ``sweep:<source>`` span per computed group) -> resolve/replay.
    """
    tracer = Tracer()
    root = tracer.adopt(
        f"plan:{plan.table_id}", run_started, run_ended,
        pid=os.getpid(), cells=len(plan.cells), workers=stats.workers,
    )
    for outcome in sorted(outcomes, key=lambda o: o.index):
        if outcome.result_hit:
            cell = plan.cells[outcome.index]
            tracer.adopt(
                f"cell:{cell.source}/{cell.machine}/{cell.config}",
                outcome.started,
                outcome.ended,
                parent_id=root.span_id,
                pid=outcome.pid,
                row=cell.row,
                queue_wait=round(outcome.queue_wait, 6),
            )
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
            "schema_version": RESULT_SCHEMA_VERSION,
        },
        timings={
            "wall_seconds": stats.wall_seconds,
            "cell_seconds": stats.cell_seconds,
            "max_cell_seconds": stats.max_cell_seconds,
            "queue_wait_seconds": stats.queue_wait_seconds,
        },
        metrics=registry.snapshot(),
        spans=tracer.to_payload(),
    )


def _sweep_groups(plan: ExperimentPlan) -> List[List[Tuple[int, Cell]]]:
    """Partition plan cells into groups of ``(index, cell)`` pairs.

    Simulator cells naming the same trace source form one sweep group;
    limits cells stay groups of one (they have no machine to sweep).
    Groups come in first-appearance order; the deterministic merge sorts
    by cell index, so grouping never changes the table.
    """
    groups: List[List[Tuple[int, Cell]]] = []
    by_source: Dict[str, List[Tuple[int, Cell]]] = {}
    for index, cell in enumerate(plan.cells):
        if cell.is_limits:
            groups.append([(index, cell)])
            continue
        bucket = by_source.get(cell.source)
        if bucket is None:
            by_source[cell.source] = bucket = []
            groups.append(bucket)
        bucket.append((index, cell))
    return groups


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
    larger fans out over a ``ProcessPoolExecutor``.  Simulator cells
    sharing a trace are evaluated as one fast-path sweep (see
    :mod:`repro.core.fastpath`) -- per-cell cache lookups and gating are
    preserved, so the table is bit-identical to per-cell evaluation.
    *cache* is optional: without it the engine is a pure compute path.
    With ``observe=True`` the run also records a span trace and writes a
    :class:`~repro.obs.manifest.RunManifest` under the cache root
    (``<root>/manifests``), returned on the :class:`PlanRun`.

    *progress* receives one :class:`~repro.harness.progress.ProgressEvent`
    per completed cell, in the parent process, as results arrive
    (completion order across groups; plan order within a group).  The
    merge stays deterministic regardless.
    """
    workers = default_workers() if workers is None else max(1, int(workers))
    run_started = time.monotonic()
    start = time.perf_counter()
    groups = _sweep_groups(plan)

    total = len(plan.cells)
    completed = 0
    outcomes: List[CellOutcome] = []

    def collect(batch: List[CellOutcome]) -> None:
        nonlocal completed
        outcomes.extend(batch)
        if progress is None:
            completed += len(batch)
            return
        for outcome in sorted(batch, key=lambda o: o.index):
            completed += 1
            cell = plan.cells[outcome.index]
            progress(ProgressEvent(
                table_id=plan.table_id,
                completed=completed,
                total=total,
                index=outcome.index,
                source=cell.source,
                machine="" if cell.is_limits else cell.machine,
                config=cell.config,
                row=cell.row,
                seconds=outcome.seconds,
                result_hit=outcome.result_hit,
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
        wall_seconds=wall_seconds,
        cell_seconds=sum(o.seconds for o in outcomes),
        max_cell_seconds=max((o.seconds for o in outcomes), default=0.0),
        result_hits=sum(1 for o in outcomes if o.result_hit),
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
