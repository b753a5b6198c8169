"""Tests for the parallel experiment engine and the persistent store.

The two properties the redesign promises:

* **Determinism** -- ``workers=4`` produces cell-for-cell identical
  tables to ``workers=1`` (the merge is in plan order, never completion
  order).
* **Cache transparency** -- a cold run populates the store, a warm run
  hits it, and a corrupted entry is silently ignored and rebuilt; cache
  state can only ever change timing, never values.
"""

import json

import pytest

import repro.api as api
from repro.harness.engine import (
    cell_key,
    clear_process_memo,
    evaluate_group,
    trace_key,
)
from repro.harness.plans import build_plan
from repro.trace import DiskCache


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
        }
        assert cell_key(cray)["source"] == cray.source


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

    def test_corrupted_result_is_ignored_and_rebuilt(self, small_sizes):
        cold = api.run_table("table1", sizes=small_sizes, workers=1)
        store = DiskCache()
        results = sorted((store.root / "results").glob("*.jsonl"))
        assert len(results) == cold.stats.cells
        results[0].write_text("this is not json\n")
        results[1].write_text(json.dumps({"kind": "header"}) + "\n")

        warm = api.run_table("table1", sizes=small_sizes, workers=1)
        assert warm.table.rows == cold.table.rows
        assert warm.stats.result_hits == warm.stats.cells - 2
        # The corrupted entries were rebuilt in place.
        rerun = api.run_table("table1", sizes=small_sizes, workers=1)
        assert rerun.stats.result_hits == rerun.stats.cells

    def test_corrupted_trace_is_ignored_and_rebuilt(self, small_sizes):
        api.run_table("table1", sizes=small_sizes, workers=1)
        store = DiskCache()
        for archive in (store.root / "traces").glob("*.jsonl"):
            archive.write_text("garbage\n")
        # Wipe results so traces must be re-resolved, and forget the
        # in-process memo so the corrupted archives are actually read.
        for entry in (store.root / "results").glob("*.jsonl"):
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

    def test_corruption_rebuilds_are_counted(self, small_sizes):
        api.run_table("table1", sizes=small_sizes, workers=1)
        store = DiskCache()
        results = sorted((store.root / "results").glob("*.jsonl"))
        results[0].write_text("this is not json\n")

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


class TestSweepGrouping:
    """Sweep-shaped plans route through the batch backend without
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

    def test_limit_cells_stay_singletons(self, small_sizes):
        from repro.harness.engine import _sweep_groups

        plan = build_plan("table2", small_sizes)
        for group in _sweep_groups(plan):
            assert len(group) == 1
            assert group[0][1].is_limits

    @pytest.mark.parametrize("backend", ["python", "batch"])
    def test_backends_produce_identical_tables(self, small_sizes, backend):
        auto = api.run_table(
            "table1", sizes=small_sizes, workers=1, cache=False
        )
        other = api.run_table(
            "table1", sizes=small_sizes, workers=1, cache=False,
            backend=backend,
        )
        assert other.table.rows == auto.table.rows

    def test_sweep_metrics_attribute_batch_backend(self, small_sizes):
        from repro.core import fastpath

        if not fastpath.enabled():
            pytest.skip("fast path disabled via REPRO_FASTPATH")
        cold = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        counters = cold.stats.metrics["counters"]
        assert counters["fastpath.batch.sweeps"] > 0
        assert counters["fastpath.batch.fast_runs"] > 0
        assert cold.manifest.counter("fastpath.batch.sweeps") == (
            counters["fastpath.batch.sweeps"]
        )


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
