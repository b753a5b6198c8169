"""Tests for the parallel experiment engine and the persistent store.

The two properties the redesign promises:

* **Determinism** -- ``workers=4`` produces cell-for-cell identical
  tables to ``workers=1`` (the merge is in plan order, never completion
  order).
* **Cache transparency** -- a cold run populates the store, a warm run
  hits it, and a corrupted entry is silently ignored and rebuilt; cache
  state can only ever change timing, never values.  Results live in one
  segment per trace source, so corruption is exercised per segment and
  per line.
"""

import json

import pytest

import repro.api as api
import repro.harness.engine as engine
from repro.harness.engine import (
    cell_key,
    clear_process_memo,
    evaluate_group,
    run_plan,
    segment_key,
    trace_key,
)
from repro.harness.plans import Cell, ExperimentPlan, build_plan
from repro.trace import DiskCache
from repro.trace.diskcache import model_fingerprint


def segment_of(source):
    """The segment file holding *source*'s cells in the default store."""
    return DiskCache().segment_path(segment_key(source))


def plan_of(table_id, cells):
    rows = tuple(dict.fromkeys(cell.row for cell in cells))
    columns = tuple(dict.fromkeys(c for cell in cells for c in cell.columns))
    return ExperimentPlan(
        table_id=table_id, title=table_id, columns=columns, rows=rows,
        cells=tuple(cells),
    )


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_process_memo()


class TestPlans:
    def test_table1_decomposition(self, small_sizes):
        plan = build_plan("table1", small_sizes)
        assert len(plan.cells) == 4 * 4 * 14
        assert plan.rows[0] == "scalar/Simple"
        sources = {f"kernel:{loop}:n={n}" for loop, n in small_sizes.items()}
        assert all(cell.source in sources for cell in plan.cells)

    def test_table2_uses_limit_cells(self, small_sizes):
        plan = build_plan("table2", small_sizes)
        assert all(cell.is_limits for cell in plan.cells)
        assert plan.columns == ("pseudo-dataflow", "resource", "actual")
        # Paper row order: Pure before Serial, scalar before vectorizable.
        assert plan.rows[0].startswith("scalar/Pure")
        assert plan.rows[-1].startswith("vectorizable/Serial")

    def test_cell_keys_are_table_independent(self, small_sizes):
        t1 = build_plan("table1", small_sizes)
        t3 = build_plan("table3", small_sizes, stations=(1,))
        cray = next(c for c in t1.cells if c.machine == "cray")
        inorder = next(c for c in t3.cells if c.machine == "inorder:1:nbus")
        assert cell_key(cray) != cell_key(inorder)
        assert trace_key(cray.source) == {
            "kind": "trace", "source": cray.source,
            "model": model_fingerprint(),
        }
        # The config name resolves to its latencies; row and column are
        # not part of the identity, so an explorer cell shares the entry.
        explorer = Cell(source=cray.source, machine="cray",
                        config=cray.config, row="x", columns=("y",))
        assert cell_key(explorer) == cell_key(cray)
        assert cray.config not in cell_key(cray)
        assert len(cell_key(cray).split()) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "table_id,overrides",
        [
            ("table1", {}),
            ("table7", {"ruu_sizes": (10, 50), "units": (1, 4)}),
        ],
    )
    def test_parallel_identical_to_serial(
        self, small_sizes, table_id, overrides
    ):
        serial = api.run_table(
            table_id, sizes=small_sizes, workers=1, cache=False, **overrides
        )
        parallel = api.run_table(
            table_id, sizes=small_sizes, workers=4, cache=False, **overrides
        )
        assert serial.table.columns == parallel.table.columns
        for (row_s, values_s), (row_p, values_p) in zip(
            serial.table.rows, parallel.table.rows
        ):
            assert row_s == row_p
            for column in serial.table.columns:
                # Bit-identical, not approximately equal.
                assert values_s[column] == values_p[column]

    def test_parallel_with_cache_identical(self, small_sizes):
        serial = api.run_table("table1", sizes=small_sizes, workers=1,
                               cache=False)
        cached = api.run_table("table1", sizes=small_sizes, workers=4,
                               cache=True)
        recached = api.run_table("table1", sizes=small_sizes, workers=1,
                                 cache=True)
        assert serial.table.rows == cached.table.rows
        assert serial.table.rows == recached.table.rows


class TestDiskCacheRoundTrip:
    def test_cold_populates_warm_hits(self, small_sizes):
        cold = api.run_table("table1", sizes=small_sizes, workers=1)
        assert cold.stats.result_hits == 0
        assert cold.stats.traces_built > 0

        warm = api.run_table("table1", sizes=small_sizes, workers=1)
        assert warm.stats.result_hits == warm.stats.cells
        assert warm.stats.traces_built == 0
        assert warm.table.rows == cold.table.rows

    def test_corrupted_result_is_ignored_and_rebuilt(
        self, small_sizes
    ):
        plan = build_plan("table1", small_sizes)
        cold = api.run_table("table1", sizes=small_sizes, workers=1)
        segments = sorted((DiskCache().root / "segments").glob("*.jsonl"))
        assert len(segments) == 14
        source = plan.cells[0].source
        in_group = sum(1 for cell in plan.cells if cell.source == source)
        segment_of(source).write_text("this is not json\n")

        warm = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        assert warm.table.rows == cold.table.rows
        assert warm.stats.result_misses == in_group
        assert warm.stats.corrupt_rebuilds == in_group
        counters = warm.stats.metrics["counters"]
        assert counters["cache.result.corruptions"] == in_group
        assert counters["cache.result.misses"] == in_group
        # The segment was rebuilt in place.
        rerun = api.run_table("table1", sizes=small_sizes, workers=1)
        assert rerun.stats.result_hits == rerun.stats.cells

    def test_one_bad_line_is_one_miss(self, small_sizes):
        plan = build_plan("table1", small_sizes)
        cold = api.run_table("table1", sizes=small_sizes, workers=1)
        path = segment_of(plan.cells[0].source)
        lines = path.read_text().split("\n")
        key, _, _ = lines[3].partition(" ")
        lines[3] = key + ' {"instructions": 1, "cyc'
        path.write_text("\n".join(lines))

        warm = api.run_table("table1", sizes=small_sizes, workers=1)
        assert warm.table.rows == cold.table.rows
        assert warm.stats.result_misses == 1
        assert warm.stats.corrupt_rebuilds == 1
        rerun = api.run_table("table1", sizes=small_sizes, workers=1)
        assert rerun.stats.result_hits == rerun.stats.cells

    @pytest.mark.parametrize("damage", ["no-trailing-newline", "lost-line"])
    def test_truncated_segment_is_detected(self, small_sizes, damage):
        plan = build_plan("table1", small_sizes)
        cold = api.run_table("table1", sizes=small_sizes, workers=1)
        source = plan.cells[0].source
        in_group = sum(1 for cell in plan.cells if cell.source == source)
        path = segment_of(source)
        text = path.read_text()
        if damage == "no-trailing-newline":
            # Cut mid-record: every line before the cut still parses.
            path.write_text(text[: text.rindex("\n", 0, -1) + 40])
        else:
            # Cut at a line boundary: the header's count catches it.
            path.write_text(text[: text.rindex("\n", 0, -1) + 1])

        warm = api.run_table("table1", sizes=small_sizes, workers=1)
        assert warm.table.rows == cold.table.rows
        assert warm.stats.result_misses == in_group
        assert warm.stats.corrupt_rebuilds == in_group
        rerun = api.run_table("table1", sizes=small_sizes, workers=1)
        assert rerun.stats.result_hits == rerun.stats.cells

    def test_two_plans_storing_one_source_both_survive(self):
        source = "kernel:3:n=16"
        first = plan_of("first", [
            Cell(source, "cray", "M11BR5", "cray", ("M11BR5",)),
            Cell(source, "limits", "M11BR5", "limits",
                 ("pseudo-dataflow", "resource", "actual")),
        ])
        second = plan_of("second", [
            Cell(source, "ooo:2", "M5BR2", "ooo", ("M5BR2",)),
            Cell(source, "ruu:2:10", "M11BR2", "ruu", ("M11BR2",)),
        ])
        assert run_plan(first, workers=1, cache=DiskCache()).stats.result_hits == 0
        assert run_plan(second, workers=1, cache=DiskCache()).stats.result_hits == 0
        lines = segment_of(source).read_text().splitlines()
        assert len(lines) == 1 + 4
        for plan in (first, second):
            rerun = run_plan(plan, workers=1, cache=DiskCache())
            assert rerun.stats.result_hits == len(plan.cells)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_cold_then_warm_table2_in_parallel_has_no_misses(
        self, small_sizes, workers
    ):
        # table2's 8 limits cells per source once were 8 groups racing
        # one segment's read-merge-replace; a lost update would show
        # here as a warm miss.
        cold = api.run_table("table2", sizes=small_sizes, workers=workers)
        assert cold.stats.result_hits == 0
        warm = api.run_table("table2", sizes=small_sizes, workers=workers)
        assert warm.stats.result_misses == 0
        assert warm.table.rows == cold.table.rows

    def test_corrupted_trace_is_ignored_and_rebuilt(self, small_sizes):
        api.run_table("table1", sizes=small_sizes, workers=1)
        store = DiskCache()
        for archive in (store.root / "traces").glob("*.jsonl"):
            archive.write_text("garbage\n")
        # Wipe results so traces must be re-resolved, and forget the
        # in-process memo so the corrupted archives are actually read.
        for entry in (store.root / "segments").glob("*.jsonl"):
            entry.unlink()
        clear_process_memo()

        rebuilt = api.run_table("table1", sizes=small_sizes, workers=1)
        assert rebuilt.stats.traces_built > 0
        assert rebuilt.stats.result_hits == 0

    def test_cache_stores_loadable_traces(self, small_sizes):
        plan = build_plan("table1", small_sizes)
        store = DiskCache()
        cell = plan.cells[0]
        evaluate_group([(0, cell)], store)
        trace = store.load_trace(trace_key(cell.source))
        assert trace is not None
        assert len(trace) > 0

    def test_missing_cache_dir_is_a_cold_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "nowhere"))
        run = api.run_table(
            "table3", sizes={n: 8 for n in range(1, 15)}, workers=1,
            stations=(1,),
        )
        assert run.stats.result_hits == 0
        assert run.table.rows


class TestObservedCacheCounters:
    """Aggregated cache.* counters must match the cold/warm ground truth.

    Workers ship per-cell DiskCache counter deltas back to the parent,
    which folds them into the run's metrics registry -- so the totals
    must be exact regardless of fan-out width.
    """

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cold_then_warm_table1_counters(self, small_sizes, workers):
        cold = api.run_table(
            "table1", sizes=small_sizes, workers=workers, observe=True
        )
        counters = cold.stats.metrics["counters"]
        assert counters.get("cache.result.hits", 0.0) == 0.0
        assert counters["cache.result.misses"] == cold.stats.cells
        assert cold.manifest.cache_hit_rate == 0.0

        warm = api.run_table(
            "table1", sizes=small_sizes, workers=workers, observe=True
        )
        counters = warm.stats.metrics["counters"]
        assert counters["cache.result.hits"] == warm.stats.cells
        assert counters.get("cache.result.misses", 0.0) == 0.0
        assert warm.manifest.cache_hit_rate == 1.0
        assert warm.table.rows == cold.table.rows

    def test_utilization_and_queue_wait_recorded(self, small_sizes):
        run = api.run_table(
            "table1", sizes=small_sizes, workers=2, observe=True
        )
        assert run.stats.worker_utilization
        assert all(0 <= u for u in run.stats.worker_utilization.values())
        assert run.stats.queue_wait_seconds >= 0.0
        gauges = run.stats.metrics["gauges"]
        assert any(
            name.startswith("worker.") and name.endswith(".utilization")
            for name in gauges
        )

    def test_queue_wait_starts_when_the_worker_is_free(self, small_sizes):
        """Every group is submitted at once, but a group waits only from
        the end of its worker's previous group: the waits of a plan with
        more groups than workers add up to at most workers x wall."""
        workers = 2
        run = api.run_table(
            "table1", sizes=small_sizes, workers=workers, observe=True
        )
        assert run.stats.groups > workers
        assert run.stats.queue_wait_seconds <= (
            workers * run.stats.wall_seconds
        )

    def test_corruption_rebuilds_are_counted(self, small_sizes):
        api.run_table("table1", sizes=small_sizes, workers=1)
        path = segment_of(build_plan("table1", small_sizes).cells[0].source)
        lines = path.read_text().split("\n")
        key, _, _ = lines[1].partition(" ")
        lines[1] = key + " this is not json"
        path.write_text("\n".join(lines))

        warm = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        assert warm.stats.corrupt_rebuilds == 1
        counters = warm.stats.metrics["counters"]
        assert counters["cache.result.corruptions"] == 1.0
        assert "1 corrupt rebuilt" in warm.stats.footer()

    def test_footer_format_unchanged_without_corruption(self, small_sizes):
        run = api.run_table("table1", sizes=small_sizes, workers=1)
        footer = run.stats.footer()
        assert "result cache" in footer
        assert "corrupt" not in footer


class TestFastpathCounters:
    """Per-cell compiled-fast-path stats deltas fold into the run metrics."""

    def test_cold_run_reports_fast_runs_and_compiles(self, small_sizes):
        from repro.core import fastpath

        if not fastpath.enabled():
            pytest.skip("fast path disabled via REPRO_FASTPATH")
        cold = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        counters = cold.stats.metrics["counters"]
        # Most table1 machines dispatch to a compiled loop; each of those
        # cells contributes one fast run plus either a compile (first
        # replay of the trace this process) or a compile-cache hit.
        assert counters["fastpath.fast_runs"] > 0
        assert (
            counters.get("fastpath.compiles", 0.0)
            + counters.get("fastpath.cache_hits", 0.0)
        ) > 0
        assert cold.manifest.counter("fastpath.fast_runs") == (
            counters["fastpath.fast_runs"]
        )

        # A warm run serves every cell from the result cache: nothing is
        # simulated, so no fast runs are recorded.
        warm = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        warm_counters = warm.stats.metrics["counters"]
        assert warm_counters.get("fastpath.fast_runs", 0.0) == 0.0


class TestWarmTelemetry:
    def test_cold_and_warm_report_identical_sim_counters(self):
        """A warm run folds ``sim.*`` counters from the cached records,
        so every record must carry the same telemetry a fresh replay
        attaches -- across every compiled family, batched or not."""
        from repro.harness.engine import run_plan
        from repro.harness.plans import Cell, ExperimentPlan

        machines = (
            "cray", "cdc6600", "inorder:2", "tomasulo", "ooo:2",
            "ruu:2:10", "spec:50:2bit",
        )
        cells = tuple(
            Cell(source=f"kernel:{loop}:n=20", machine=machine,
                 config="M11BR5", row=machine, columns=("M11BR5",))
            for machine in machines
            for loop in (3, 5)
        )
        plan = ExperimentPlan(
            table_id="mixed", title="mixed families", columns=("M11BR5",),
            rows=machines, cells=cells,
        )
        cold = run_plan(plan, workers=1, cache=DiskCache(), observe=True)
        clear_process_memo()
        warm = run_plan(plan, workers=1, cache=DiskCache(), observe=True)

        def sim_counters(run):
            counters = run.manifest.metrics["counters"]
            return {k: v for k, v in counters.items() if k.startswith("sim.")}

        assert warm.stats.result_hits == len(cells)
        assert sim_counters(cold)
        assert any(k.startswith("sim.stall.") for k in sim_counters(cold))
        assert sim_counters(warm) == sim_counters(cold)
        assert warm.table.rows == cold.table.rows


class TestSweepGrouping:
    """Sweep-shaped plans route through the batch sweep without
    changing a single table value."""

    def test_sweep_groups_partition_by_trace(self, small_sizes):
        from repro.harness.engine import _sweep_groups

        plan = build_plan("table1", small_sizes)
        groups = _sweep_groups(plan)
        # table1 has no limit cells: everything sweeps, one group per
        # trace source, together covering every cell exactly once.
        assert len(groups) == 14
        indices = sorted(index for group in groups for index, _ in group)
        assert indices == list(range(len(plan.cells)))
        for group in groups:
            assert len({cell.source for _, cell in group}) == 1

    def test_limits_cells_join_their_source_group(self, small_sizes):
        from repro.harness.engine import _sweep_groups

        plan = build_plan("table2", small_sizes)
        groups = _sweep_groups(plan)
        # One group per trace source: 8 limits cells (4 configs x
        # pure/serial) each, so a segment has one writer per plan.
        assert len(groups) == 14
        for group in groups:
            assert len(group) == 8
            assert len({cell.source for _, cell in group}) == 1
            assert all(cell.is_limits for _, cell in group)

    @pytest.mark.parametrize("backend", ["python", "batch"])
    def test_backends_produce_identical_tables(
        self, small_sizes, monkeypatch, backend
    ):
        """Both replay routes give the fast-path-off tables: "batch" is
        the engine's sweep (Table 5's ooo batch kernel, Table 1's
        per-spec loops inside the sweep); "python" serves every member
        through its own ``simulate``, i.e. its per-spec compiled loop."""
        from repro.core import fastpath

        if backend == "python":
            monkeypatch.setattr(
                fastpath, "simulate_sweep",
                lambda trace, items: [
                    simulator.simulate(trace, config)
                    for simulator, config in items
                ],
            )
        for table_id in ("table1", "table5"):
            swept = api.run_table(
                table_id, sizes=small_sizes, workers=1, cache=False
            )
            previous = fastpath.set_enabled(False)
            try:
                reference = api.run_table(
                    table_id, sizes=small_sizes, workers=1, cache=False
                )
            finally:
                fastpath.set_enabled(previous)
            assert swept.table.rows == reference.table.rows, table_id

    def test_sweep_metrics_attribute_batch_backend(self, small_sizes):
        from repro.core import fastpath

        if not fastpath.enabled():
            pytest.skip("fast path disabled via REPRO_FASTPATH")
        # Table 5 sweeps out-of-order members, which have a batch
        # kernel; Table 1's families are served per spec inside the
        # sweep and counted as fallbacks.
        cold = api.run_table(
            "table5", sizes=small_sizes, workers=1, observe=True,
            stations=(1, 2),
        )
        counters = cold.stats.metrics["counters"]
        assert counters["fastpath.batch.sweeps"] > 0
        assert counters["fastpath.batch.fast_runs"] == cold.stats.cells
        assert cold.manifest.counter("fastpath.batch.sweeps") == (
            counters["fastpath.batch.sweeps"]
        )
        table1 = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        counters1 = table1.stats.metrics["counters"]
        assert counters1["fastpath.batch.fallback_runs"] > 0
        assert counters1.get("fastpath.batch.fast_runs", 0.0) == 0.0


class TestTraceMemo:
    """GLOBAL_TRACE_CACHE is the one in-process trace memo, keyed by
    trace-source spec and shared by the engine and the kernels."""

    def test_engine_and_kernel_resolve_one_object(self):
        from repro.kernels import build_kernel, default_size

        trace, origin = engine.resolve_trace(f"kernel:5:n={default_size(5)}")
        assert origin == "built"
        assert trace is build_kernel(5).trace()

    def test_kernel_trace_is_an_engine_memo_hit(self, small_sizes):
        from repro.kernels import build_kernel

        n = small_sizes[7]
        trace = build_kernel(7, n).trace()
        resolved, origin = engine.resolve_trace(f"kernel:7:n={n}")
        assert resolved is trace and origin == "memo"

    def test_one_entry_per_plan_source(self, small_sizes):
        from repro.trace import GLOBAL_TRACE_CACHE

        plan = build_plan("per-loop", small_sizes)
        run_plan(plan, workers=1)
        assert len(GLOBAL_TRACE_CACHE) == len(
            {cell.source for cell in plan.cells}
        )


    def test_finished_groups_release_their_plans(self, small_sizes):
        """A plan replays each trace in one group, which drops the trace's
        plans when it ends: after a cold table 5 (out-of-order widths
        1-8) the memo still holds every trace and its compilation, but
        no plan derived from it."""
        from repro.core import fastpath
        from repro.trace import GLOBAL_TRACE_CACHE

        plan = build_plan("table5", small_sizes)
        run_plan(plan, workers=1, cache=None)
        compiles = fastpath.stats()["compiles"]
        for source in {cell.source for cell in plan.cells}:
            trace = GLOBAL_TRACE_CACHE.peek(source)
            assert fastpath.compile_trace(trace).derived == {}, source
        assert fastpath.stats()["compiles"] == compiles

    def test_memo_keeps_the_most_recent_traces(self):
        from repro.trace import GLOBAL_TRACE_CACHE
        from repro.trace.cache import CAPACITY

        sources = [f"branchy:seed={seed}:n=40" for seed in range(CAPACITY + 5)]
        traces = [engine.resolve_trace(source)[0] for source in sources]
        assert len(GLOBAL_TRACE_CACHE) <= CAPACITY
        assert GLOBAL_TRACE_CACHE.peek(sources[0]) is None
        newest, origin = engine.resolve_trace(sources[-1])
        assert newest is traces[-1] and origin == "memo"


class TestDiskCacheUnit:
    def test_result_round_trip(self, tmp_path):
        store = DiskCache(tmp_path / "c")
        key = {"kind": "cell", "x": 1}
        assert store.load_result(key) is None
        store.store_result(key, {"instructions": 10, "cycles": 40})
        assert store.load_result(key) == {"instructions": 10, "cycles": 40}
        assert store.counters()["result_hits"] == 1

    def test_keys_are_order_insensitive(self, tmp_path):
        store = DiskCache(tmp_path / "c")
        a = store.result_path({"a": 1, "b": 2})
        b = store.result_path({"b": 2, "a": 1})
        assert a == b

    def test_clear(self, tmp_path):
        store = DiskCache(tmp_path / "c")
        store.store_result({"k": 1}, {"v": 2})
        store.clear()
        assert store.load_result({"k": 1}) is None

    def test_segment_round_trip_counts_each_lookup(self, tmp_path):
        store = DiskCache(tmp_path / "c")
        key = {"kind": "segment", "source": "s"}
        store.store_segment(key, {"a|x|s0": {"v": 1}, "b|x|s0": {"v": 2}})
        segment = store.read_segment(key)
        assert segment.lookup("a|x|s0", lambda r: r["v"]) == 1
        assert segment.lookup("missing", lambda r: r["v"]) is None
        # A record the decoder rejects is a corruption and a miss.
        assert segment.lookup("b|x|s0", lambda r: r["nope"]) is None
        counters = store.counters()
        assert counters["result_hits"] == 1
        assert counters["result_misses"] == 2
        assert counters["result_corruptions"] == 1

    def test_segment_store_merges_and_replaces(self, tmp_path):
        store = DiskCache(tmp_path / "c")
        key = {"kind": "segment", "source": "s"}
        store.store_segment(key, {"a": {"v": 1}, "b": {"v": 2}})
        store.store_segment(key, {"b": {"v": 3}, "c": {"v": 4}})
        segment = store.read_segment(key)
        assert [segment.lookup(k, lambda r: r["v"]) for k in "abc"] == [
            1, 3, 4,
        ]
        with pytest.raises(ValueError):
            store.store_segment(key, {"has space": {"v": 5}})

    def test_damaged_segment_is_discarded(self, tmp_path):
        store = DiskCache(tmp_path / "c")
        key = {"kind": "segment", "source": "s"}
        store.store_segment(key, {"a": {"v": 1}})
        path = store.segment_path(key)
        path.write_text(path.read_text().rstrip("\n"))
        segment = store.read_segment(key)
        assert segment.damaged
        assert not path.exists()
        assert segment.lookup("a", lambda r: r["v"]) is None
        assert store.counters()["result_corruptions"] == 1

    def test_clear_removes_segments(self, tmp_path):
        store = DiskCache(tmp_path / "c")
        key = {"kind": "segment", "source": "s"}
        store.store_segment(key, {"a": {"v": 1}})
        store.clear()
        assert store.read_segment(key).lookup("a", dict) is None


class TestModelFingerprint:
    """A model change must never be answered from an older entry."""

    def test_patched_latency_changes_every_cell_key(
        self, small_sizes, monkeypatch
    ):
        from repro.isa import FunctionalUnit, functional_units

        cells = [
            cell
            for table_id in ("table1", "table2")
            for cell in build_plan(table_id, small_sizes).cells
        ]
        before = [cell_key(cell) for cell in cells]
        monkeypatch.setitem(
            functional_units.FIXED_LATENCIES, FunctionalUnit.FP_ADD, 7
        )
        after = [cell_key(cell) for cell in cells]
        assert all(old != new for old, new in zip(before, after))

    def test_patched_latency_makes_a_warm_cache_miss(
        self, small_sizes, monkeypatch
    ):
        from repro.isa import FunctionalUnit, functional_units

        api.run_table("table1", sizes=small_sizes, workers=1)
        monkeypatch.setitem(
            functional_units.FIXED_LATENCIES, FunctionalUnit.FP_MULTIPLY, 8
        )
        rerun = api.run_table("table1", sizes=small_sizes, workers=1)
        assert rerun.stats.result_hits == 0

    def test_fingerprint_is_in_every_segment_and_trace_key(
        self, small_sizes, monkeypatch
    ):
        sources = {cell.source for cell in build_plan("table1", small_sizes).cells}
        store = DiskCache()
        real = {
            source: (
                store.segment_path(segment_key(source)),
                store.trace_path(trace_key(source)),
            )
            for source in sources
        }
        cold = api.run_table("table1", sizes=small_sizes, workers=1)
        monkeypatch.setattr(engine, "model_fingerprint", lambda: "edited")
        for source in sources:
            segment, trace = real[source]
            assert store.segment_path(segment_key(source)) != segment
            assert store.trace_path(trace_key(source)) != trace
        clear_process_memo()
        edited = api.run_table("table1", sizes=small_sizes, workers=1)
        assert edited.stats.result_hits == 0
        assert edited.stats.traces_loaded == 0
        assert edited.table.rows == cold.table.rows

    def test_fingerprint_is_recorded_in_manifests(self, small_sizes):
        run = api.run_table("table1", sizes=small_sizes, workers=1,
                            observe=True)
        assert run.manifest.config["model"] == model_fingerprint()
        assert len(model_fingerprint()) == 64
