"""Tests of the end-to-end benchmark itself.

    python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import layers
import workloads
from workloads import api, fastpath

TESTS_DATA = workloads.ROOT / "tests" / "data"


def fake_clock(*readings):
    values = iter(readings)
    return lambda: next(values)


def test_self_time_is_duration_minus_direct_children():
    tracer = layers.Tracer(clock=fake_clock(0, 1, 2, 3, 5, 6, 9, 10))
    root = tracer.begin(layers.PASS)      # 0
    outer = tracer.begin("engine")        # 1
    inner = tracer.begin("limits")        # 2
    tracer.end(inner)                     # 3
    tracer.end(outer)                     # 5
    last = tracer.begin("diskcache.store")  # 6
    tracer.end(last)                      # 9
    tracer.end(root)                      # 10
    self_s = [span.self_s for span in tracer.spans]
    assert self_s == [3, 3, 1, 3]
    assert sum(self_s) == tracer.spans[0].duration
    assert tracer.nesting_errors() == []
    metrics = layers.summarize(tracer, fastpath_deltas={}, cache_bytes=[0])
    assert metrics["trace.unattributed_pct"] == 30.0
    assert metrics["engine.self_pct"] == 30.0
    assert metrics["limits.pct"] == 10.0


def test_spans_must_end_in_order():
    tracer = layers.Tracer(clock=fake_clock(0, 1))
    outer = tracer.begin("engine")
    tracer.begin("limits")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_per_layer_metric_names_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    tracer = layers.Tracer()
    tracer.end(tracer.begin(layers.PASS))
    names = set(layers.summarize(
        tracer, fastpath_deltas={}, cache_bytes=[0]
    )) | set(workloads.SIMULATED_METRICS) | set(workloads.RUN_METRICS)
    assert names == {metric["name"] for metric in spec["per_layer"]}


@pytest.mark.parametrize("base, candidate, expected", [
    ([10.0, 10.1, 10.2, 10.0], [10.3, 10.4, 10.2, 10.3], "ok"),
    ([10.0, 10.1, 10.2, 10.0], [12.0, 12.1, 11.9, 12.0], "REGRESSION"),
    ([8.0, 10.0, 12.0, 14.0], [13.0, 12.0, 15.0, 9.0], "unresolved"),
    ([8.0, 10.0, 12.0, 14.0], [5.0, 6.0, 7.0, 7.5], "better"),
])
def test_bounds_verdicts(base, candidate, expected):
    state, _ = compare.verdict(base, candidate, 0.10, "lower")
    assert state == expected


def test_bounds_respect_direction():
    state, worse = compare.verdict([100.0, 101.0], [80.0, 81.0], 0.10, "higher")
    assert state == "REGRESSION"
    assert worse == pytest.approx(0.2, abs=0.01)


def test_compare_reports_each_workload_and_failures():
    spec = {
        "workloads": [{"name": "verify"}, {"name": "explore"}],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
        ],
    }

    def run(workload, wall, correct=True):
        return {"workload": workload, "trace": 0, "correct": correct,
                "failed": 0, "metrics": {"wall_s": {"value": wall}}}

    lines, passed = compare.compare(
        [run("verify", 1.0), run("explore", 2.0)],
        [run("verify", 1.01), run("explore", 2.0, correct=False)],
        spec,
    )
    assert len(lines) == 2 and lines[0].startswith("verify")
    assert "FAILED" in lines[1] and not passed


SMALL_TABLES = ("table1", "table2", "table5")


def test_every_tables_cold_pass_is_equally_cold(tmp_path):
    from repro.kernels import SMALL_SIZES

    cold = workloads.TablesCold(
        0, tmp_path, sizes=dict(SMALL_SIZES), tables=SMALL_TABLES
    )
    deltas = []
    for index in range(2):
        cold.prepare(index)
        before = fastpath.stats()["compiles"]
        runs = cold.run(index)
        misses = sum(
            run.stats.metrics["counters"].get("cache.result.misses", 0)
            for run in runs
        )
        deltas.append((fastpath.stats()["compiles"] - before, misses))
    assert deltas[0] == deltas[1]
    assert deltas[0][0] > 0 and deltas[0][1] > 0


def test_traced_pass_returns_the_untraced_outputs(tmp_path):
    from repro.kernels import SMALL_SIZES

    cold = workloads.TablesCold(
        0, tmp_path, sizes=dict(SMALL_SIZES), tables=("table1", "table2")
    )
    cold.prepare(0)
    plain = workloads.table_cells(cold.run(0))
    tracer = layers.Tracer()
    cold.prepare(1)
    run_plan = api.run_plan
    restore = layers.install(tracer)
    try:
        assert api.run_plan is not run_plan
        traced = workloads.table_cells(cold.run(1))
    finally:
        restore()
    assert traced == plain
    assert api.run_plan is run_plan
    assert tracer.nesting_errors() == []
    assert {span.layer for span in tracer.spans} >= {
        "engine", "sources.capture", "fastpath.compile", "limits",
        "diskcache.load", "diskcache.store", "obs.manifest", "replay.mixed",
    }


def test_generator_reproduces_golden_tables_at_small_sizes(tmp_path):
    """The expected.json generator, run at SMALL_SIZES, matches the
    repository's golden tables bit for bit."""
    from repro.kernels import SMALL_SIZES

    cold = workloads.TablesCold(0, tmp_path, sizes=dict(SMALL_SIZES))
    cold.prepare(0)
    measured = workloads.table_cells(cold.run(0))
    golden = {}
    for name in ("golden_tables.json", "golden_spec_tables.json"):
        golden.update(json.loads((TESTS_DATA / name).read_text()))
    cells, errors = workloads.cell_mismatches(measured, golden)
    assert cells > 0 and errors == []
