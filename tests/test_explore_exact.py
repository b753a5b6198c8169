"""Exact stage + end-to-end explorer: determinism, caching, recall.

The golden recall test is the PR's acceptance gate in miniature: on a
27-candidate RUU grid, exhaustively simulated, the screened
frontier+band must recover >= 0.9 of the *true* (simulated) Pareto
frontier for every calibrated scalar workload family.
"""

from __future__ import annotations

import pytest

import repro.api as api
import repro.harness.engine as engine
from repro.core import fastpath
from repro.explore import explore
from repro.explore.exact import ErrorStats, frontier_recall, simulate_specs
from repro.harness.plans import build_plan
from repro.trace import DiskCache

SOURCES = ["branchy:seed=3:n=200", "pointer:seed=5:n=200"]
SPECS = ["ruu:1:8:nbus", "ruu:2:16:nbus", "ooo:2", "inorder:2:1bus"]

#: The seeded golden recall grid: 3 widths x 3 windows x 3 fu counts.
RECALL_SPACE = "family=ruu;width=1,2,4;window=4,16,64;fu=1,2,4;bus=nbus"
RECALL_SOURCES = [
    "branchy:seed={seed}:n=300",
    "pointer:seed={seed}:n=300",
    "fuzz:seed={seed}:len=300",
]


def cache_entries(cache: DiskCache) -> int:
    return sum(1 for path in cache.root.rglob("*.jsonl"))


class TestSimulateSpecsPlan:
    """The exact stage is an ordinary plan run by the engine."""

    def test_workers_do_not_change_results(self):
        serial, _ = simulate_specs(SPECS, SOURCES, workers=1)
        parallel, run = simulate_specs(SPECS, SOURCES, workers=2)
        # Bit-identical, not approximately equal.
        assert parallel == serial
        assert run.stats.workers == 2

    def test_result_cache_hits_on_rerun(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cold_rates, cold = simulate_specs(SPECS, SOURCES, workers=1, cache=cache)
        warm_rates, warm = simulate_specs(SPECS, SOURCES, workers=1, cache=cache)
        assert cold.stats.result_hits == 0
        assert warm.stats.result_hits == len(SPECS) * len(SOURCES)
        assert warm_rates == cold_rates

    def test_file_sources_never_cached(self, tmp_path):
        path = tmp_path / "branchy.jsonl"
        api.capture(SOURCES[0], str(path))
        cache = DiskCache(tmp_path / "cache")
        file_rates, run = simulate_specs(
            SPECS, [f"file:{path}"], workers=1, cache=cache
        )
        again, rerun = simulate_specs(
            SPECS, [f"file:{path}"], workers=1, cache=cache
        )
        assert cache_entries(cache) == 0
        assert run.stats.result_hits == rerun.stats.result_hits == 0
        direct, _ = simulate_specs(SPECS, SOURCES[:1], workers=1)
        assert file_rates == again == direct
        # Nor memoized in-process: rewriting the file changes the next run.
        api.capture(SOURCES[1], str(path))
        rewritten, _ = simulate_specs(
            SPECS, [f"file:{path}"], workers=1, cache=cache
        )
        other, _ = simulate_specs(SPECS, SOURCES[1:], workers=1)
        assert rewritten == other != file_rates
        trace, origin = engine.resolve_trace(f"file:{path}")
        assert origin == "built"
        assert len(trace) == len(engine.resolve_trace(SOURCES[1])[0])

    def test_explore_captures_and_compiles_each_source_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        engine.clear_process_memo()
        captured = []
        original = engine.trace_source

        def counting(spec):
            captured.append(spec)
            return original(spec)

        monkeypatch.setattr(engine, "trace_source", counting)
        sources = ["branchy:seed=11:n=150", "pointer:seed=12:n=150"]
        before = fastpath.stats()["compiles"]
        run = api.explore(
            "family=ruu;width=1,2,4;window=4,16;bus=nbus;fu=1,2", sources,
            workers=1, audit=2,
        )
        assert run.simulated_count > 0
        assert sorted(captured) == sorted(sources)
        assert fastpath.stats()["compiles"] - before == len(sources)

    def test_table_and_explore_cells_share_entries(
        self, small_sizes, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        overrides = dict(ruu_sizes=(10,), units=(1,))
        api.run_table("table7", sizes=small_sizes, workers=1, **overrides)
        cache = DiskCache()
        entries = cache_entries(cache)
        cell = build_plan("table7", small_sizes, **overrides).cells[0]
        rates, run = simulate_specs(
            [cell.machine], [cell.source], config=cell.config, workers=1,
            cache=cache,
        )
        assert run.stats.result_hits == 1
        assert cache_entries(cache) == entries


class TestSimulateSpecs:
    def test_harmonic_aggregation(self):
        rates, run = simulate_specs(SPECS, SOURCES, workers=1)
        assert run.table.table_id == "explore"
        assert [row for row, _ in run.table.rows] == SPECS
        per_source = [
            simulate_specs(SPECS, [source], workers=1)[0] for source in SOURCES
        ]
        for spec in SPECS:
            inverse = 0.0
            for single in per_source:
                inverse += 1.0 / single[spec]
            assert rates[spec] == pytest.approx(len(SOURCES) / inverse)


class TestErrorStats:
    def test_from_pairs(self):
        stats = ErrorStats.from_pairs([1.0, 2.0], [2.0, 2.0])
        assert stats.count == 2
        assert stats.mean_relative == pytest.approx(0.25)
        assert stats.max_relative == pytest.approx(0.5)

    def test_empty(self):
        stats = ErrorStats.from_pairs([], [])
        assert stats.count == 0
        assert stats.mean_relative == 0.0


class TestFrontierRecall:
    def test_full_and_partial_recall(self):
        costs = {0: 1, 1: 2, 2: 3}
        rates = {0: 0.1, 1: 0.2, 2: 0.3}  # all three on the true frontier
        recall, frontier = frontier_recall(costs, rates, [0, 1, 2])
        assert recall == 1.0 and frontier == [0, 1, 2]
        recall, _ = frontier_recall(costs, rates, [0, 2])
        assert recall == pytest.approx(2 / 3)


class TestExploreEndToEnd:
    def test_simulates_only_selected_candidates(self):
        run = explore(
            "family=ruu;width=1..8;window=4..64:4;bus=nbus,1bus;fu=1,2",
            ["branchy:seed=3:n=200"], workers=1, audit=6,
        )
        assert run.total_candidates == 512
        assert 0 < run.simulated_count < run.total_candidates
        assert len(run.audit) == 6
        # Frontier is cost-ascending with simulated points attached.
        frontier_costs = [p.cost for p in run.frontier]
        assert frontier_costs == sorted(frontier_costs)
        assert all(p.simulated > 0 for p in run.frontier)

    def test_budget_caps_simulation(self):
        run = explore(
            "family=ruu;width=1..8;window=4..64:4;bus=nbus,1bus;fu=1,2",
            ["branchy:seed=3:n=200"], workers=1, budget=10, audit=16,
        )
        assert run.simulated_count <= 10

    def test_deterministic_in_seed(self):
        kwargs = dict(workers=1, audit=5, seed=42)
        a = explore(RECALL_SPACE, ["pointer:seed=5:n=200"], **kwargs)
        b = explore(RECALL_SPACE, ["pointer:seed=5:n=200"], **kwargs)
        assert [p.index for p in a.audit] == [p.index for p in b.audit]
        assert a.errors == b.errors

    def test_warm_cache_rerun_hits_everything(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        space = "family=ruu;width=1,2;window=4,16;bus=nbus;fu=1,2"
        cold = explore(space, ["branchy:seed=3:n=200"], workers=1,
                       cache=cache, audit=2)
        warm = explore(space, ["branchy:seed=3:n=200"], workers=1,
                       cache=cache, audit=2)
        assert not cold.screen_cached and warm.screen_cached
        assert warm.result_hits == warm.simulated_count
        assert [p.index for p in warm.frontier] == [
            p.index for p in cold.frontier
        ]
        for a, b in zip(warm.frontier, cold.frontier):
            assert a.simulated == b.simulated
            assert a.predicted == pytest.approx(b.predicted)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="capped"):
            explore(
                "family=ruu;width=1..32;window=2..512;bus=nbus;fu=1",
                ["branchy:seed=3:n=200"], exhaustive=True,
            )

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("family", RECALL_SOURCES)
    def test_golden_recall_on_exhaustive_grid(self, family, seed):
        """Acceptance: frontier recall >= 0.9 vs the simulated grid."""
        run = explore(
            RECALL_SPACE, [family.format(seed=seed)],
            workers=1, exhaustive=True,
        )
        assert run.total_candidates == 27
        assert run.recall is not None and run.true_frontier_size > 0
        assert run.recall >= 0.9, (
            f"{family} seed={seed}: recall {run.recall:.2f} "
            f"({run.true_frontier_size} true frontier points)"
        )
