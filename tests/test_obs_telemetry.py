"""Differential tests for the zero-slowdown fast-path telemetry.

The contract under test: every compiled fast loop (and the RUU size
rule inside a sweep) attaches an aggregate
:class:`~repro.obs.telemetry.SimTelemetry` record to its result that is
*bit-identical* to the record derived from the matching reference
loop's event stream by :func:`~repro.obs.telemetry.telemetry_from_events`.
Fuzzed traces cover all six fast-loop families; hand-built traces pin
each stall-reason counter to its exact value.

The export/streaming satellites ride along: OpenMetrics rendering,
Perfetto track naming, and the ``run_plan(progress=...)`` stream.
"""

import io
import json
import math

import pytest

import repro.api as api
from repro.core import M11BR5, STANDARD_CONFIGS, fastpath
from repro.core.fastpath.backends import SweepItem, family_of
from repro.cli import _progress_callback
from repro.core.registry import build_simulator
from repro.harness.progress import ProgressEvent
from repro.harness.plans import build_plan
from repro.obs.events import EventCollector
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    SimTelemetry,
    TELEMETRY_PREFIX,
    strip_telemetry,
    telemetry_from_events,
)
from repro.obs.tracing import spans_to_perfetto
from repro.verify.fuzz import FuzzSpec, fuzz_trace

from helpers import fadd, fmul, jan, loads, make_trace, si

#: One representative machine per compiled fast-loop family.
FAMILY_MACHINES = (
    ("scoreboard", "cray"),
    ("cdc6600", "cdc6600"),
    ("tomasulo", "tomasulo"),
    ("inorder", "inorder:2"),
    ("ooo", "ooo:4"),
    ("ruu", "ruu:2:10"),
)

#: Trace shapes rotated through the fuzz sweep: the default mix, a
#: branch-heavy long trace, and a dense short dependency chain.
SHAPES = (
    FuzzSpec(),
    FuzzSpec(length=96, branch_fraction=0.18, taken_fraction=0.7),
    FuzzSpec(length=17, dependency_density=0.9, memory_fraction=0.4),
)

#: Seeds per family; 6 families x 50 = 300 fuzzed traces overall.
SEEDS_PER_FAMILY = 50


def event_derived(sim, trace, config):
    """(reference result, event-derived telemetry) for one replay."""
    collector = EventCollector()
    reference = sim.simulate_observed(trace, config, collector)
    return reference, telemetry_from_events(
        collector.events,
        trace=trace,
        cycles=reference.cycles,
        family=family_of(sim),
        issue_units=getattr(sim, "issue_units", 0),
    )


def assert_telemetry_matches(sim, trace, config, result):
    """One result's telemetry must equal the event-stream reduction."""
    fast = SimTelemetry.from_detail(result.detail)
    assert fast is not None, f"{sim.name} attached no telemetry"
    reference, expected = event_derived(sim, trace, config)
    assert result.cycles == reference.cycles
    assert fast == expected, (
        f"{sim.name} on {trace.name} ({config.name}): "
        f"fast {fast} != event-derived {expected}"
    )


class TestFuzzedEquality:
    @pytest.mark.parametrize(
        "family,spec", FAMILY_MACHINES, ids=[f for f, _ in FAMILY_MACHINES]
    )
    def test_fast_loop_matches_event_reduction(self, family, spec):
        sim = build_simulator(spec)
        assert family_of(sim) == family
        for seed in range(SEEDS_PER_FAMILY):
            shape = SHAPES[seed % len(SHAPES)]
            config = STANDARD_CONFIGS[seed % len(STANDARD_CONFIGS)]
            trace = fuzz_trace(seed, shape)
            result = sim.simulate(trace, config)
            assert_telemetry_matches(sim, trace, config, result)

    def test_batch_backend_matches_event_reduction(self):
        # Two parameter points per swept family, so every family's loop
        # inside a sweep and the RUU size rule's copies are exercised.
        specs = (
            "cray", "serialmemory", "cdc6600", "tomasulo",
            "inorder:1", "inorder:4", "ooo:1", "ooo:4", "ooo:4:1bus",
            "ruu:1:1", "ruu:2:10",
        )
        sims = [build_simulator(spec) for spec in specs]
        for seed in range(8):
            config = STANDARD_CONFIGS[seed % len(STANDARD_CONFIGS)]
            trace = fuzz_trace(1000 + seed, SHAPES[seed % len(SHAPES)])
            items = [SweepItem(sim, config) for sim in sims]
            results = fastpath.simulate_sweep(trace, items)
            for sim, result in zip(sims, results):
                assert_telemetry_matches(sim, trace, config, result)
                alone = sim.simulate(trace, config)
                assert dict(result.detail) == dict(alone.detail), sim.name


class TestPinnedStallReasons:
    """Hand-built traces with exact, independently-derived counters."""

    def pinned(self, spec, items):
        sim = build_simulator(spec)
        trace = make_trace(items)
        result = sim.simulate(trace, M11BR5)
        telemetry = SimTelemetry.from_detail(result.detail)
        assert telemetry is not None
        assert_telemetry_matches(sim, trace, M11BR5, result)
        return result, telemetry

    def test_raw_counter(self):
        # fadd waits for the 11-cycle load: issue 11 instead of 1.
        result, t = self.pinned("cray", [loads(1, 1), fadd(2, 1, 1)])
        assert t.stall_cycles == {"RAW": 10}
        assert t.issue_width == {1: 2}
        assert t.fu_busy_cycles == {"FP_ADD": 6, "MEMORY": 11}

    def test_waw_counter(self):
        result, t = self.pinned("cray", [si(1), fmul(2, 1, 1), si(2)])
        assert t.stall_cycles == {"WAW": 6}

    def test_unit_counter(self):
        # Serial memory: the second load waits out the first's 11 cycles.
        result, t = self.pinned("serialmemory", [loads(1, 1), loads(2, 1)])
        assert t.stall_cycles == {"UNIT": 10}
        assert t.fu_busy_cycles == {"MEMORY": 22}

    def test_bus_counter(self):
        # fmul (7 cycles, issued at 0) and fadd (6 cycles, issued at 1)
        # would both complete at 7; the younger one loses the bus.
        result, t = self.pinned("cray", [fmul(1, 7, 7), fadd(2, 6, 6)])
        assert t.stall_cycles == {"BUS": 1}

    def test_branch_counter(self):
        # M11BR5: the instruction after the branch waits brlat-1 cycles.
        result, t = self.pinned("cray", [si(1), jan(True), si(2)])
        assert t.stall_cycles == {"BRANCH": 4}
        assert t.fu_busy_cycles == {"BRANCH": 5, "TRANSFER": 2}

    def test_ruu_full_counter(self):
        # A one-entry RUU: each serial load camps in the single slot
        # until retirement, stalling the next dispatch.
        result, t = self.pinned(
            "ruu:1:1", [loads(1, 1), loads(2, 1), loads(3, 1)]
        )
        assert t.stall_cycles == {"RUU_FULL": 22}
        assert t.occupancy == {0: 1, 1: 36}

    def test_stations_full_counter(self):
        result, t = self.pinned(
            "tomasulo", [loads(n, 1) for n in range(1, 8)]
        )
        assert t.stall_cycles == {"STATIONS_FULL": 8}

    def test_taken_branch_flush(self):
        # A taken branch cuts the 4-wide issue buffer: one flush, two
        # discarded slots, and the window histogram records the cut.
        for spec in ("inorder:4", "ooo:4"):
            result, t = self.pinned(
                spec, [si(1), jan(True), si(2), si(3)]
            )
            assert t.flushes == 1
            assert t.flush_cycles == 2
            assert t.occupancy == {2: 2}
            assert t.issue_width == {1: 2, 2: 1}


class TestCollectionSwitch:
    def test_detail_round_trip(self):
        t = SimTelemetry(
            instructions=5, cycles=9,
            stall_cycles={"RAW": 3}, fu_busy_cycles={"MEMORY": 11},
            issue_width={1: 5}, occupancy={0: 1, 2: 8},
            flushes=1, flush_cycles=2,
        )
        detail = t.to_detail()
        assert all(key.startswith(TELEMETRY_PREFIX) for key in detail)
        assert SimTelemetry.from_detail(detail) == t
        assert strip_telemetry(dict(detail, other=1)) == {"other": 1}


class TestOpenMetrics:
    def test_exposition_shape(self):
        registry = MetricsRegistry()
        registry.inc("cache.result.hits", 3)
        registry.inc("engine.group.seconds_total", 1.5)
        registry.set_gauge("worker.42.utilization", 0.75)
        registry.observe("engine.group.seconds", 0.004)
        registry.observe("engine.group.seconds", 2.0)
        text = registry.to_openmetrics()
        lines = text.splitlines()
        assert text.endswith("# EOF\n")
        assert "cache_result_hits_total 3" in lines
        # A pre-existing _total suffix must not double up.
        assert "engine_group_seconds_total_total 1.5" not in lines
        assert "engine_group_seconds_total 1.5" in lines
        assert "worker_42_utilization 0.75" in lines
        assert 'engine_group_seconds_bucket{le="+Inf"} 2' in lines
        assert "engine_group_seconds_count 2" in lines
        # Buckets are cumulative and non-decreasing.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("engine_group_seconds_bucket")
        ]
        assert counts == sorted(counts)

    def test_round_trips_from_manifest_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("sim.stall.RAW", 120)
        registry.observe("engine.group.seconds", 0.5)
        clone = MetricsRegistry.from_snapshot(registry.snapshot())
        assert clone.to_openmetrics() == registry.to_openmetrics()


class TestPerfettoExport:
    def test_named_tracks_per_worker(self):
        spans = [
            {"name": "plan:table1", "span_id": 1, "parent_id": None,
             "start": 0.0, "end": 2.0, "pid": 100, "attrs": {}},
            {"name": "cell:5/cray", "span_id": 2, "parent_id": 1,
             "start": 0.5, "end": 1.0, "pid": 200, "attrs": {}},
        ]
        payload = spans_to_perfetto(spans)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in meta}
        assert names[100] == "repro engine (pid 100)"
        assert names[200] == "repro worker (pid 200)"
        # Metadata precedes the events and both spans survive.
        kinds = [e["ph"] for e in payload["traceEvents"]]
        assert kinds[: len(meta)] == ["M"] * len(meta)
        assert kinds.count("X") == 2


class TestProgressStream:
    @staticmethod
    def _assert_group_stream(events, run, plan_sources):
        groups = len(plan_sources)
        assert len(events) == groups
        assert [e.completed for e in events] == list(range(1, groups + 1))
        assert all(e.total == groups for e in events)
        assert sorted(e.source for e in events) == sorted(plan_sources)
        assert sum(e.cells for e in events) == run.stats.cells
        assert all(e.hits == 0 and e.seconds > 0 for e in events)
        assert all(e.table_id == "table1" for e in events)

    def test_run_plan_streams_every_cell(self, small_sizes, monkeypatch,
                                         tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        events = []
        run = api.run_table(
            "table1", sizes=small_sizes, workers=1, cache=False,
            progress=events.append,
        )
        plan = build_plan("table1", small_sizes)
        sources = list(dict.fromkeys(cell.source for cell in plan.cells))
        # One event per sweep group, in plan order when serial.
        self._assert_group_stream(events, run, sources)
        assert [e.source for e in events] == sources
        assert run.stats.cells == 4 * 4 * 14
        payload = events[0].to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert run.table.rows  # the run itself still completes

    def test_parallel_progress_matches_serial_outcome(
        self, small_sizes, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        serial_events, parallel_events = [], []
        serial = api.run_table(
            "table1", sizes=small_sizes, workers=1, cache=False,
            progress=serial_events.append,
        )
        parallel = api.run_table(
            "table1", sizes=small_sizes, workers=4, cache=False,
            progress=parallel_events.append,
        )
        plan = build_plan("table1", small_sizes)
        sources = list(dict.fromkeys(cell.source for cell in plan.cells))
        self._assert_group_stream(serial_events, serial, sources)
        self._assert_group_stream(parallel_events, parallel, sources)
        assert serial.table.rows == parallel.table.rows

    def test_human_ticker_prints_one_line_per_group(self):
        stream = io.StringIO()
        emit = _progress_callback("human", stream)
        emit(ProgressEvent(
            table_id="table1", completed=3, total=14, source="kernel:5:n=16",
            cells=16, hits=4, seconds=0.25, pid=1,
        ))
        emit(ProgressEvent(
            table_id="table1", completed=4, total=14, source="kernel:7:n=16",
            cells=16, hits=0, seconds=0.5, pid=1,
        ))
        first, second = stream.getvalue().splitlines()
        assert first.startswith("[  3/14] table1 kernel:5:n=16 ")
        assert first.split()[-5:] == ["16", "cells", "0.250s", "(4", "cached)"]
        assert second.split()[-3:] == ["16", "cells", "0.500s"]


class TestEngineTelemetryFolding:
    def test_manifest_carries_sim_metrics(self, small_sizes, monkeypatch,
                                          tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True,
        )
        counters = run.manifest.metrics["counters"]
        sim_keys = [k for k in counters if k.startswith("sim.")]
        assert "sim.instructions" in sim_keys
        assert "sim.cycles" in sim_keys
        assert any(k.startswith("sim.stall.") for k in sim_keys)
        assert any(k.startswith("sim.fu.") for k in sim_keys)
        # A fully warm re-run folds identical totals: telemetry is
        # cache-independent, like every other result.
        warm = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True,
        )
        warm_counters = warm.manifest.metrics["counters"]
        for key in sim_keys:
            assert warm_counters[key] == counters[key], key
