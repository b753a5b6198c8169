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
        result = api.simulate(12, "cray", n=16, config="M5BR2")
        assert isinstance(result, SimulationResult)
        assert result.config.name == "M5BR2"
        assert 0 < result.issue_rate < 1.5

    def test_unknown_machine_raises_structured_error(self):
        with pytest.raises(UnknownSpecError):
            api.simulate(12, "warp-drive", n=16)


class TestLimitsAndStalls:
    def test_limits(self):
        report = api.limits(5, n=8)
        assert report.actual_rate <= report.pseudo_dataflow_rate + 1e-9
        serial = api.limits(5, n=8, serial=True)
        assert serial.actual_rate <= report.actual_rate + 1e-9

    def test_stalls_render(self):
        text = api.stalls(5, n=8).render()
        assert "source register" in text


class TestKernelHelpers:
    def test_disassemble(self):
        listing = api.disassemble(5, n=8)
        assert "LOADS" in listing

    def test_kernel_stats(self):
        stats = api.kernel_stats(5, n=8)
        assert stats.total > 0

    def test_capture_replay_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = api.capture(12, str(path), n=16)
        assert count > 0 and path.exists()
        result = api.replay(str(path), "ooo:4")
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
        run = api.run_sweep(self.SPECS, [1, 5])
        assert run.specs == self.SPECS
        for spec in self.SPECS:
            assert len(run.results[spec]) == 2
            for result, kernel in zip(run.results[spec], (1, 5)):
                solo = api.simulate(kernel, spec)
                assert result.cycles == solo.cycles
                assert result.instructions == solo.instructions

    def test_backends_agree(self):
        """The batch sweep agrees with each spec's own ``simulate``, and
        the manifest attributes the replays to the sweep."""
        from repro.harness.aggregate import harmonic_mean

        run = api.run_sweep(self.SPECS, [12])
        for spec in self.SPECS:
            solo = api.simulate(12, spec)
            assert run.results[spec][0].detail == solo.detail
            assert run.rates[spec] == harmonic_mean(
                [solo.instructions / solo.cycles]
            )
        assert run.manifest["fastpath"].get("batch.sweeps", 0) >= 1

    def test_accepts_trace_objects(self, loop5_trace):
        run = api.run_sweep(["cray"], [loop5_trace])
        assert run.manifest["traces"] == [loop5_trace.name]
        result = run.results["cray"][0]
        assert run.rates["cray"] == pytest.approx(
            result.instructions / result.cycles
        )

    def test_rejects_bad_spec_before_running(self):
        with pytest.raises(api.UnknownSpecError):
            api.run_sweep(["cray", "warp-drive"], [1])

    def test_rejects_empty_specs(self):
        with pytest.raises(ValueError, match="specs is empty"):
            api.run_sweep([], [1])

    def test_rejects_empty_traces(self):
        with pytest.raises(ValueError, match="traces is empty"):
            api.run_sweep(["cray"], [])

    def test_render_lists_every_spec(self):
        run = api.run_sweep(self.SPECS, [1])
        text = run.render()
        for spec in self.SPECS:
            assert spec in text
