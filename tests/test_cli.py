"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSimulate:
    def test_default_machine(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--kernel", "12", "--n", "16"
        )
        assert code == 0
        assert "CRAY-like" in out
        assert "per cycle" in out

    def test_machine_spec_and_config(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate", "--kernel", "12", "--n", "16",
            "--machine", "ruu:2:20", "--config", "M5BR2",
        )
        assert code == 0
        assert "RUU x2 R=20" in out
        assert "M5BR2" in out

    def test_unroll_and_no_schedule(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate", "--kernel", "12", "--n", "16",
            "--unroll", "2", "--no-schedule",
        )
        assert code == 0

    def test_bad_machine_spec(self, capsys):
        code = main([
            "simulate", "--kernel", "12", "--n", "16",
            "--machine", "warp-drive",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "warp-drive" in err
        assert "ruu:<units>" in err


class TestInspection:
    def test_disasm(self, capsys):
        code, out = run_cli(capsys, "disasm", "--kernel", "5", "--n", "8")
        assert code == 0
        assert "LOADS" in out
        assert "loop:" in out

    def test_stats(self, capsys):
        code, out = run_cli(capsys, "stats", "--kernel", "5", "--n", "8")
        assert code == 0
        assert "memory references" in out

    def test_limits(self, capsys):
        code, out = run_cli(capsys, "limits", "--kernel", "5", "--n", "8")
        assert code == 0
        assert "pseudo-dataflow limit" in out
        assert "serial (WAW) limit" in out

    def test_stalls(self, capsys):
        code, out = run_cli(capsys, "stalls", "--kernel", "5", "--n", "8")
        assert code == 0
        assert "source register" in out


class TestCaptureReplay:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        code, out = run_cli(
            capsys, "capture", "--kernel", "12", "--n", "16",
            "--out", str(path),
        )
        assert code == 0
        assert path.exists()

        code, out = run_cli(
            capsys, "replay", "--trace", str(path), "--machine", "ooo:4"
        )
        assert code == 0
        assert "out-of-order x4" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_kernel(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--kernel", "99"])

    def test_tables_delegates(self, capsys, monkeypatch):
        import repro.api as api

        monkeypatch.setattr(
            api, "section33", lambda: {"scalar": 0.5, "vectorizable": 0.6}
        )
        code, out = run_cli(capsys, "tables", "section33")
        assert code == 0
        assert "0.50" in out and "paper 0.72" in out

    def test_tables_forwards_workers_and_cache_flags(self, capsys, monkeypatch):
        import repro.api as api
        from repro.harness.engine import EngineStats
        from repro.harness.tables import ResultTable

        seen = {}

        def fake(table_id, *, compare=False, workers=None, cache=True, **kw):
            seen.update(table_id=table_id, workers=workers, cache=cache)
            table = ResultTable(
                table_id=table_id,
                title="fake",
                columns=("M11BR5",),
                rows=(("r", {"M11BR5": 1.0}),),
            )
            return api.TableRun(
                table=table,
                stats=EngineStats(table_id=table_id, cells=1, workers=1),
            )

        monkeypatch.setattr(api, "run_table", fake)
        code, out = run_cli(
            capsys, "tables", "table3", "--workers", "2", "--no-cache"
        )
        assert code == 0
        assert seen == {"table_id": "table3", "workers": 2, "cache": False}

    @staticmethod
    def fake_tables(monkeypatch):
        import repro.api as api
        from repro.harness.engine import EngineStats
        from repro.harness.tables import ResultTable

        calls = []

        def fake(table_id, *, compare=False, **kw):
            calls.append((table_id, compare))
            table = ResultTable(
                table_id=table_id,
                title="fake table",
                columns=("M11BR5",),
                rows=(("scalar/CRAY-like", {"M11BR5": 0.25}),),
            )
            return api.TableRun(
                table=table,
                stats=EngineStats(table_id=table_id, cells=1, workers=1),
                reference=api.PAPER_TABLES.get(table_id) if compare else None,
            )

        monkeypatch.setattr(api, "run_table", fake)
        return calls

    def test_tables_rejects_unknown_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["tables", "table99"])

    def test_tables_compare_prints_paper_numbers(self, capsys, monkeypatch):
        calls = self.fake_tables(monkeypatch)
        code, out = run_cli(capsys, "tables", "table1", "--compare")
        assert code == 0
        assert "fake table" in out and "0.25" in out
        assert "Paper Table 1" in out
        assert "relative deviation" in out
        assert calls == [("table1", True)]

    def test_tables_all_runs_every_table(self, capsys, monkeypatch):
        import repro.api as api

        calls = self.fake_tables(monkeypatch)
        assert run_cli(capsys, "tables", "all")[0] == 0
        assert [table for table, _ in calls] == list(api.list_tables())


class TestVectorFlag:
    def test_vector_kernel_simulation(self, capsys):
        code = main(
            ["simulate", "--kernel", "12", "--n", "64", "--vector"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per cycle" in out

    def test_vector_flag_rejects_scalar_only_loops(self, capsys):
        with pytest.raises(ValueError):
            main(["simulate", "--kernel", "5", "--vector"])


class TestSweepCommand:
    def test_sweep_prints_per_spec_rates(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--machines", "cray", "ooo:2",
            "--kernels", "1", "12",
        )
        assert code == 0
        assert "sweep: 2 machines x 2 traces" in out
        assert "cray" in out and "ooo:2" in out

    def test_sweep_backend_flag(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--machines", "cray",
            "--kernels", "3", "--backend", "python",
        )
        assert code == 0
        assert "backend python" in out

    def test_sweep_rejects_bad_spec(self, capsys):
        code = main(["sweep", "--machines", "cray", "warp-drive"])
        err = capsys.readouterr().err
        assert code == 2
        assert "warp-drive" in err


class TestMachineInfoFlag:
    def test_stats_machine_describes_spec(self, capsys):
        code, out = run_cli(capsys, "stats", "--machine", "ooo:4:1bus")
        assert code == 0
        assert "OutOfOrderMultiIssueMachine" in out
        assert "compiled family 'ooo'" in out

    def test_stats_machine_reference_only(self, capsys):
        code, out = run_cli(capsys, "stats", "--machine", "simple")
        assert code == 0
        assert "reference loop" in out

    def test_stats_machine_rejects_malformed_params(self, capsys):
        code = main(["stats", "--machine", "ruu:2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "ruu:2" in err


class TestBackendFlags:
    def test_tables_forwards_backend(self, capsys, monkeypatch):
        import repro.api as api
        from repro.harness.engine import EngineStats
        from repro.harness.tables import ResultTable

        seen = {}

        def fake(table_id, *, backend="auto", **kw):
            seen["backend"] = backend
            table = ResultTable(
                table_id=table_id,
                title="fake",
                columns=("M11BR5",),
                rows=(("r", {"M11BR5": 1.0}),),
            )
            return api.TableRun(
                table=table,
                stats=EngineStats(table_id=table_id, cells=1, workers=1),
            )

        monkeypatch.setattr(api, "run_table", fake)
        code, _ = run_cli(
            capsys, "tables", "table1", "--backend", "python"
        )
        assert code == 0
        assert seen == {"backend": "python"}

    def test_bench_rejects_bad_machine_before_running(self, capsys):
        code = main(["bench", "--quick", "--machines", "warp-drive"])
        err = capsys.readouterr().err
        assert code == 2
        assert "warp-drive" in err
