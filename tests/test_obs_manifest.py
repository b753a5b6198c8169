"""Tests for run manifests and the observability CLI surfaces.

Covers the durable manifest store (write/load/list/find, corrupt-file
tolerance), the derived accounting ``repro stats`` renders, and the two
CLI subcommands built on top: ``stats`` (run breakdown) and
``trace-export`` (Chrome trace_event / raw span JSON).
"""

import json

import pytest

import repro.api as api
from repro.cli import _render_run_detail, main as cli_main
from repro.harness.engine import clear_process_memo
from repro.obs.manifest import (
    RunManifest,
    find_manifest,
    list_manifests,
    load_manifest,
    manifest_dir,
    new_run_id,
    write_manifest,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_process_memo()


def _manifest(run_id="20260101T000000-table1-1-abc", **overrides):
    data = dict(
        run_id=run_id,
        table_id="table1",
        created="2026-01-01T00:00:00Z",
        git_sha="deadbeef",
        config={"workers": 2, "cache_enabled": True, "cells": 4},
        timings={"wall_seconds": 1.5},
        metrics={
            "counters": {
                "cache.result.hits": 3.0,
                "cache.result.misses": 1.0,
            },
            "gauges": {
                "worker.100.utilization": 0.8,
                "worker.101.utilization": 0.6,
            },
        },
        spans=[
            {"name": "plan:table1", "span_id": 1, "parent_id": None,
             "start": 0.0, "end": 1.5, "pid": 1},
            {"name": "sweep:kernel:5:n=16", "span_id": 2, "parent_id": 1,
             "start": 0.1, "end": 0.9, "pid": 100},
            {"name": "sweep:kernel:7:n=16", "span_id": 3, "parent_id": 1,
             "start": 0.1, "end": 1.4, "pid": 101},
        ],
    )
    data.update(overrides)
    return RunManifest(**data)


class TestManifestStore:
    def test_round_trip(self, tmp_path):
        manifest = _manifest()
        path = write_manifest(manifest, tmp_path)
        assert path is not None and path.is_file()
        assert load_manifest(path).to_dict() == manifest.to_dict()

    def test_list_newest_first_skips_corrupt(self, tmp_path):
        write_manifest(_manifest("20260101T000000-table1-1-aaa"), tmp_path)
        write_manifest(
            _manifest(
                "20260102T000000-table2-1-bbb",
                created="2026-01-02T00:00:00Z",
            ),
            tmp_path,
        )
        (manifest_dir(tmp_path) / "broken.json").write_text("not json")
        manifests = list_manifests(tmp_path)
        assert [m.run_id[:8] for m in manifests] == ["20260102", "20260101"]

    def test_find_by_unique_prefix(self, tmp_path):
        write_manifest(_manifest("20260101T000000-table1-1-aaa"), tmp_path)
        write_manifest(
            _manifest(
                "20260102T000000-table1-1-bbb",
                created="2026-01-02T00:00:00Z",
            ),
            tmp_path,
        )
        found = find_manifest(tmp_path, "20260102")
        assert found is not None and found.run_id.endswith("bbb")
        # Ambiguous prefix matches nothing.
        assert find_manifest(tmp_path, "2026") is None

    def test_run_ids_are_distinct(self):
        ids = {new_run_id("table1") for _ in range(16)}
        assert len(ids) == 16
        assert all("table1" in run_id for run_id in ids)


class TestDerivedAccounting:
    def test_cache_hit_rate(self):
        assert _manifest().cache_hit_rate == pytest.approx(0.75)
        empty = _manifest(metrics={})
        assert empty.cache_hit_rate is None

    def test_worker_utilization(self):
        assert _manifest().worker_utilization == {"100": 0.8, "101": 0.6}

    def test_group_timings_slowest_first(self):
        groups = _manifest().group_timings()
        assert [g["name"] for g in groups] == [
            "sweep:kernel:7:n=16", "sweep:kernel:5:n=16",
        ]
        assert groups[0]["seconds"] == pytest.approx(1.3)


class TestObservedRunEndToEnd:
    def test_run_table_observe_writes_manifest(self, small_sizes):
        run = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        manifest = run.manifest
        assert manifest is not None
        assert manifest.table_id == "table1"
        assert manifest.counter("cache.result.misses") == run.stats.cells
        # Durable: the facade finds it again.
        assert api.find_run(manifest.run_id).run_id == manifest.run_id
        assert api.list_runs(limit=1)[0].run_id == manifest.run_id
        # Spans cover the plan and every cell: a cold run computes every
        # cell inside one sweep span per trace source.
        names = [span["name"] for span in manifest.spans]
        assert names[0] == "plan:table1"
        sweeps = [s for s in manifest.spans if s["name"].startswith("sweep:")]
        assert len(sweeps) == 14
        assert sum(s["attrs"]["cells"] for s in sweeps) == run.stats.cells
        assert all(s["attrs"]["hits"] == 0 for s in sweeps)
        assert len(names) == 1 + 5 * len(sweeps)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_group_seconds_are_the_sweep_spans(self, small_sizes, workers):
        # The engine reports what it measured: one time per sweep group,
        # the length of that group's span -- no per-cell shares.
        for _ in range(2):  # cold, then warm
            run = api.run_table(
                "table1", sizes=small_sizes, workers=workers, observe=True
            )
            groups = run.manifest.group_timings()
            assert len(groups) == run.stats.groups == 14
            assert run.stats.max_group_seconds == groups[0]["seconds"]
            assert run.manifest.timings["max_group_seconds"] == (
                groups[0]["seconds"]
            )
            assert run.stats.group_seconds == pytest.approx(
                sum(g["seconds"] for g in groups)
            )
            histograms = run.manifest.metrics["histograms"]
            assert histograms["engine.group.seconds"]["count"] == 14
            assert histograms["engine.queue.wait_seconds"]["count"] == 14
            assert "engine.cell.seconds" not in histograms

    def test_observe_off_writes_nothing(self, small_sizes):
        run = api.run_table("table1", sizes=small_sizes, workers=1)
        assert run.manifest is None
        assert api.list_runs() == []


class TestCliStats:
    def test_stats_without_kernel_reports_runs(self, small_sizes, capsys):
        api.run_table("table1", sizes=small_sizes, workers=1, observe=True)
        api.run_table("table1", sizes=small_sizes, workers=1, observe=True)
        assert cli_main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "observed runs" in out
        assert "result cache" in out
        assert "compiled fast path" in out
        assert "slowest groups" in out
        # The warm second run hit the cache on every cell.
        assert "hit rate 100.0%" in out

    def test_stats_with_run_id(self, small_sizes, capsys):
        run = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        assert cli_main(["stats", "--run", run.manifest.run_id]) == 0
        assert run.manifest.run_id in capsys.readouterr().out

    def test_stats_unknown_run_fails(self, capsys):
        assert cli_main(["stats", "--run", "nope"]) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_run_detail_reads_group_timings(self):
        manifest = _manifest(timings={
            "wall_seconds": 1.5, "group_seconds": 2.1,
            "max_group_seconds": 1.3, "queue_wait_seconds": 0.0,
        })
        detail = _render_run_detail(manifest)
        assert "group time 2.10s (max 1.300s)" in detail
        assert "slowest groups" in detail

    def test_run_detail_reads_a_v1_manifest(self):
        # v1 named the per-group sum cell_seconds; its max_cell_seconds
        # was an even per-cell share, so no group maximum is shown.
        data = _manifest().to_dict()
        data.update(version=1, timings={
            "wall_seconds": 1.5, "cell_seconds": 2.1,
            "max_cell_seconds": 0.02, "queue_wait_seconds": 0.0,
        })
        manifest = RunManifest.from_dict(data)
        assert manifest.version == 1
        detail = _render_run_detail(manifest)
        assert "group time 2.10s (max n/a in a v1 manifest)" in detail

    def test_stats_with_kernel_keeps_old_behaviour(self, capsys):
        assert cli_main(["stats", "--kernel", "5", "--n", "16"]) == 0
        assert "instruction" in capsys.readouterr().out.lower()


class TestCliTraceExport:
    def test_chrome_export_to_stdout(self, small_sizes, capsys):
        api.run_table("table1", sizes=small_sizes, workers=1, observe=True)
        assert cli_main(["trace-export"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {"name", "ts", "dur", "pid", "tid"} <= set(events[0])

    def test_raw_export_to_file(self, small_sizes, tmp_path, capsys):
        run = api.run_table(
            "table1", sizes=small_sizes, workers=1, observe=True
        )
        out = tmp_path / "spans.json"
        assert cli_main(
            ["trace-export", "--format", "json", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["run_id"] == run.manifest.run_id
        assert payload["spans"] == run.manifest.spans

    def test_export_without_runs_fails(self, capsys):
        assert cli_main(["trace-export"]) == 2
        assert "no observed runs" in capsys.readouterr().err
