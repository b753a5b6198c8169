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
            capsys, "simulate", "--source", f"file:{path}",
            "--machine", "ooo:4",
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
        """section33 runs through api.run_table like every table, and
        --compare attaches the paper's quote."""
        import repro.api as api
        from repro.harness.engine import EngineStats
        from repro.harness.paper import PAPER_SECTION33_TABLE
        from repro.harness.tables import ResultTable

        calls = []

        def fake(table_id, *, compare=False, workers=None, cache=True, **kw):
            calls.append((table_id, compare, workers, cache))
            table = ResultTable(
                table_id=table_id,
                title="fake section33",
                columns=("M11BR5",),
                rows=(
                    ("scalar", {"M11BR5": 0.5}),
                    ("vectorizable", {"M11BR5": 0.6}),
                ),
            )
            return api.TableRun(
                table=table,
                stats=EngineStats(table_id=table_id, cells=14, workers=1),
                reference=PAPER_SECTION33_TABLE if compare else None,
            )

        monkeypatch.setattr(api, "run_table", fake)
        code, out = run_cli(
            capsys, "tables", "section33", "--compare", "--workers", "2",
            "--no-cache",
        )
        assert code == 0
        assert calls == [("section33", True, 2, False)]
        assert "0.50" in out and "0.72" in out
        assert "Paper Section 3.3" in out

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
        with pytest.raises(SystemExit) as info:
            main(["tables", "table99"])
        assert info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1 and "table99" in errors[0]

    def test_tables_accepts_every_plan_id(self):
        from repro.cli import build_parser
        from repro.harness.plans import PLAN_BUILDERS

        parser = build_parser()
        for table_id in list(PLAN_BUILDERS) + ["all"]:
            assert parser.parse_args(["tables", table_id]).table == table_id

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


class TestSection33Flags:
    """``tables section33`` takes the same engine flags as every table."""

    @pytest.fixture
    def root(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        return root

    @staticmethod
    def files(root):
        return sorted(
            str(path.relative_to(root))
            for path in root.rglob("*") if path.is_file()
        ) if root.exists() else []

    def test_no_cache_writes_no_cache_entries(self, capsys, root):
        code, _ = run_cli(
            capsys, "tables", "section33", "--no-cache", "--no-observe"
        )
        assert code == 0
        assert self.files(root) == []
        code, out = run_cli(capsys, "tables", "section33", "--no-cache")
        assert code == 0 and "cache disabled" in out
        # Only the run manifest: no trace, segment or result entry.
        assert [path.split("/")[0] for path in self.files(root)] == [
            "manifests"
        ]

    def test_default_run_writes_one_manifest(self, capsys, root):
        import json

        code, out = run_cli(capsys, "tables", "section33")
        assert code == 0 and "14 cells" in out
        manifests = list((root / "manifests").glob("*.json"))
        assert len(manifests) == 1
        assert json.loads(manifests[0].read_text())["table_id"] == "section33"

    def test_workers_do_not_change_output(self, capsys, root):
        def table(*flags):
            code, out = run_cli(
                capsys, "tables", "section33", "--no-cache", "--no-observe",
                *flags,
            )
            assert code == 0
            return [line for line in out.splitlines()
                    if not line.startswith("[")]

        assert table("--workers", "2") == table("--workers", "1")


class TestVectorFlag:
    def test_vector_kernel_simulation(self, capsys):
        code = main(
            ["simulate", "--kernel", "12", "--n", "64", "--vector"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per cycle" in out

    def test_vector_flag_rejects_scalar_only_loops(self, capsys):
        code = main(["simulate", "--kernel", "5", "--vector"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error:") and "loop 5" in err[0]


#: (flags, spec tokens) for each kernel modifier of the trace group.
MODIFIERS = [
    pytest.param((), "", id="plain"),
    pytest.param(("--unroll", "2"), ":unroll=2", id="unroll"),
    pytest.param(("--no-schedule",), ":schedule=off", id="no-schedule"),
    pytest.param(("--vector",), ":vector=on", id="vector"),
    pytest.param(
        ("--explicit-addressing",), ":addressing=explicit", id="explicit"
    ),
]

#: The six single-trace commands, each with its own trailing flags.
TRACE_COMMANDS = [
    ("simulate", ()),
    ("limits", ("--format", "json")),
    ("stats", ()),
    ("stalls", ()),
    ("capture", ("--out",)),
    ("disasm", ()),
]


class TestTraceRoute:
    """``--kernel`` and its flags are spellings of a ``kernel:`` spec."""

    @staticmethod
    def _output(capsys, argv, out_path):
        extra = (str(out_path),) if argv[0] == "capture" else ()
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0
        return out + (out_path.read_text() if extra else "")

    @pytest.mark.parametrize("flags,tokens", MODIFIERS)
    @pytest.mark.parametrize(
        "command,tail", TRACE_COMMANDS, ids=[c for c, _ in TRACE_COMMANDS]
    )
    def test_kernel_flags_match_source_spec(
        self, capsys, tmp_path, command, tail, flags, tokens
    ):
        n = "64" if "--vector" in flags else "16"
        out_path = tmp_path / "t.jsonl"
        by_flags = self._output(
            capsys,
            (command, "--kernel", "12", "--n", n, *flags, *tail),
            out_path,
        )
        by_spec = self._output(
            capsys,
            (command, "--source", f"kernel:12:n={n}{tokens}", *tail),
            out_path,
        )
        assert by_flags == by_spec

    def test_modifier_with_source_exits_2(self, capsys):
        code = main(["simulate", "--source", "branchy", "--n", "5"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert "--n modify --kernel only" in err[0]

    @pytest.mark.parametrize("command", ("disasm", "simulate"))
    def test_non_dividing_unroll_exits_2_without_a_run(
        self, capsys, monkeypatch, command
    ):
        """The listing rejects the spec ``simulate`` rejects, and
        neither runs the program to find out."""
        from repro.trace import generator

        def interpreter_entered(*_args, **_kwargs):
            raise AssertionError("the interpreter ran")

        monkeypatch.setattr(generator, "run_program", interpreter_entered)
        code = main([command, "--source", "kernel:1:n=10:unroll=4"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert (
            "unroll=4 does not divide every trip count of loop 1 at n=10"
            in err[0]
        )

    @pytest.mark.parametrize("argv", [
        ("--kernel", "5", "--vector"),
        ("--kernel", "12", "--vector", "--unroll", "4"),
        ("--source", "kernel:12:vector=on:unroll=4"),
    ])
    def test_conflicting_kernel_flags_exit_2(self, capsys, argv):
        code = main(["simulate", *argv])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")


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


class TestBenchFlags:
    def test_bench_rejects_bad_machine_before_running(self, capsys):
        code = main(["bench", "--quick", "--machines", "warp-drive"])
        err = capsys.readouterr().err
        assert code == 2
        assert "warp-drive" in err
