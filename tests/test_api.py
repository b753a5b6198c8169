"""Tests for the ``repro.api`` facade."""

import pytest

import repro
import repro.api as api
from repro.core import SimulationResult, UnknownSpecError, build_simulator
from repro.harness import PAPER_TABLES, PLAN_BUILDERS


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the persistent store at a throwaway directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestRunTable:
    def test_returns_table_run_with_footer(self, small_sizes):
        run = api.run_table("table1", sizes=small_sizes, workers=1)
        assert run.table.table_id == "table1"
        # 4 machines x 4 configs x 14 loops
        assert run.stats.cells == 224
        report = run.render_report()
        assert "Table 1" in report
        assert "cells in" in report  # the engine footer

    def test_compare_attaches_reference(self, small_sizes):
        run = api.run_table(
            "table1", sizes=small_sizes, workers=1, compare=True
        )
        assert run.reference is PAPER_TABLES["table1"]
        assert len(run.comparison()) == 32
        report = run.render_report(compare=True)
        assert "Paper Table 1" in report
        assert "relative deviation" in report

    def test_matches_legacy_experiment_function(self, small_sizes):
        """run_table is the plan evaluated by the in-process engine --
        what the removed ``repro.harness.table3`` wrapper returned."""
        from repro.harness import build_plan, run_plan

        run = api.run_table(
            "table3", sizes=small_sizes, workers=1, cache=False,
            stations=(1, 2),
        )
        plan = build_plan("table3", small_sizes, stations=(1, 2))
        assert run.table.rows == run_plan(plan, workers=1).table.rows

    def test_section33_served_by_table7_and_table8_cells(self, small_sizes):
        """The quote's cells are Tables 7/8 cells (x1 N-Bus, R50 on
        M11BR5): after those rows, every section33 cell is a store hit."""
        for table_id in ("table7", "table8"):
            api.run_table(
                table_id, sizes=small_sizes, workers=1,
                ruu_sizes=(50,), units=(1,),
            )
        run = api.run_table("section33", sizes=small_sizes, workers=1)
        assert run.stats.result_hits == run.stats.cells == 14

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            api.run_table("table99")

    def test_top_level_reexports(self):
        assert repro.run_table is api.run_table
        assert repro.simulate is api.simulate
        assert repro.list_tables() == api.list_tables()


class TestSimulate:
    def test_returns_simulation_result(self):
        result = api.simulate("kernel:12:n=16", "cray", config="M5BR2")
        assert isinstance(result, SimulationResult)
        assert result.config.name == "M5BR2"
        assert 0 < result.issue_rate < 1.5

    def test_kernel_spec_replays_the_memoized_trace(self, monkeypatch):
        """A single-trace call and a kernel instance share one trace."""
        from repro.kernels import build_kernel

        trace = build_kernel(5).trace()
        resolved = []

        def spy(spec):
            resolved.append(real(spec))
            return resolved[-1]

        real = api._resolve_trace
        monkeypatch.setattr(api, "_resolve_trace", spy)
        api.simulate("kernel:5:n=200", "cray")
        assert len(resolved) == 1
        assert resolved[0][0] is trace
        assert resolved[0][1] == "memo"

    def test_unknown_machine_raises_structured_error(self):
        with pytest.raises(UnknownSpecError):
            api.simulate("kernel:12:n=16", "warp-drive")


class TestLimitsAndStalls:
    def test_limits(self):
        report = api.limits("kernel:5:n=8")
        assert report.actual_rate <= report.pseudo_dataflow_rate + 1e-9
        serial = api.limits("kernel:5:n=8", serial=True)
        assert serial.actual_rate <= report.actual_rate + 1e-9

    def test_stalls_render(self):
        text = api.stalls("kernel:5:n=8").render()
        assert "source register" in text


class TestKernelHelpers:
    def test_disassemble(self):
        listing = api.disassemble("kernel:5:n=8")
        assert "LOADS" in listing

    def test_kernel_stats(self):
        stats = api.trace_stats("kernel:5:n=8")
        assert stats.total > 0

    def test_capture_replay_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = api.capture("kernel:12:n=16", str(path))
        assert count > 0 and path.exists()
        result = api.simulate(f"file:{path}", "ooo:4")
        assert isinstance(result, SimulationResult)
        assert result.instructions == count


class TestIntrospection:
    def test_list_tables(self):
        tables = api.list_tables()
        # Tables 1-8 from the paper, 9-10 the speculation limit study;
        # the section33 and per-loop plans are not numbered tables.
        assert tables == tuple(f"table{i}" for i in range(1, 11))
        assert {"section33", "per-loop"} <= set(PLAN_BUILDERS)

    def test_list_machines_covers_registry(self):
        machines = api.list_machines()
        assert "cray" in machines
        assert any(spec.startswith("ruu:") for spec in machines)
        for spec in machines:
            if "<" not in spec:  # fixed names must all build
                assert build_simulator(spec) is not None

    def test_section33_paper_numbers(self):
        paper = api.paper_section33()
        assert paper["scalar"] == pytest.approx(0.72)


class TestUnknownSpecError:
    def test_lists_valid_specs(self):
        with pytest.raises(UnknownSpecError) as excinfo:
            build_simulator("warp-drive")
        assert excinfo.value.spec == "warp-drive"
        assert "ruu:<units>" in str(excinfo.value)
        assert "simple" in excinfo.value.valid

    def test_is_a_value_error(self):
        assert issubclass(UnknownSpecError, ValueError)

    @pytest.mark.parametrize(
        "spec", ["ooo", "ooo:x", "ruu:2", "cray:5", "inorder:4:warpbus"]
    )
    def test_malformed_parameters_raise_uniformly(self, spec):
        """Known head + bad parameters is the same error class as an
        unknown head, with the reason attached."""
        with pytest.raises(UnknownSpecError) as excinfo:
            build_simulator(spec)
        assert excinfo.value.spec == spec
        assert excinfo.value.reason


class TestParseSpecAndMachineInfo:
    def test_parse_spec_normalises(self):
        parsed = api.parse_spec("  OOO:4:XBAR ")
        assert parsed.head == "ooo"
        assert parsed.params == ("4", "xbar")

    def test_parse_spec_rejects_bad_specs(self):
        with pytest.raises(api.UnknownSpecError):
            api.parse_spec("warp-drive")
        with pytest.raises(api.UnknownSpecError):
            api.parse_spec("ruu:2")  # missing the RUU size

    def test_machine_info_fast_path_machine(self):
        info = api.machine_info("ruu:2:50")
        assert info.spec == "ruu:2:50"
        assert info.machine == "RUUMachine"
        assert info.family == "ruu"
        assert info.fast_path

    def test_machine_info_reference_only_machine(self):
        info = api.machine_info("simple")
        assert info.machine == "SimpleMachine"
        assert info.family is None
        assert not info.fast_path


class TestRunSweep:
    SPECS = ("cray", "ooo:2", "ruu:2:10")

    def test_matches_per_spec_simulate(self):
        from repro.harness.aggregate import harmonic_mean

        sources = ("kernel:1", "kernel:5")
        run = api.run_sweep(self.SPECS, sources)
        assert run.specs == self.SPECS
        assert run.sources == sources
        for spec in self.SPECS:
            solo = [api.simulate(source, spec) for source in sources]
            assert run.rates[spec] == harmonic_mean(
                [result.instructions / result.cycles for result in solo]
            )

    def test_backends_agree(self):
        """The sweep and the reference loops give the same rates,
        and the run's stats attribute the replays to the sweep."""
        from repro.core import fastpath

        run = api.run_sweep(self.SPECS, ["kernel:12"])
        previous = fastpath.set_enabled(False)
        try:
            reference = api.run_sweep(self.SPECS, ["kernel:12"])
        finally:
            fastpath.set_enabled(previous)
        assert run.rates == reference.rates
        counters = run.stats.metrics["counters"]
        assert counters.get("fastpath.python.fast_runs", 0) == len(self.SPECS)
        assert counters.get("fastpath.fast_runs", 0) >= 1
        assert run.stats.cells == len(self.SPECS)
        assert run.stats.groups == 1
        assert not run.stats.cache_enabled

    def test_accepts_file_specs(self, tmp_path):
        path = tmp_path / "loop5.jsonl"
        api.capture("kernel:5", str(path))
        spec = f"file:{path}"
        run = api.run_sweep(["cray"], [spec])
        assert run.sources == (spec,)
        solo = api.simulate(spec, "cray")
        assert run.rates["cray"] == solo.instructions / solo.cycles

    def test_rejects_bad_spec_before_running(self):
        with pytest.raises(api.UnknownSpecError):
            api.run_sweep(["cray", "warp-drive"], ["kernel:1"])

    def test_rejects_empty_specs(self):
        with pytest.raises(ValueError, match="specs is empty"):
            api.run_sweep([], ["kernel:1"])

    def test_rejects_empty_traces(self):
        with pytest.raises(ValueError, match="sources is empty"):
            api.run_sweep(["cray"], [])

    def test_render_lists_every_spec(self):
        run = api.run_sweep(self.SPECS, ["kernel:1"])
        text = run.render()
        for spec in self.SPECS:
            assert spec in text
