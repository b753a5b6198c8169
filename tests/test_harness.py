"""Tests for aggregation, tables, paper data and the registry."""

import pytest

from repro.core import build_simulator, available_specs
from repro.core.buses import BusKind
from repro.harness import (
    PAPER_SECTION33,
    PAPER_TABLES,
    ResultTable,
    arithmetic_mean,
    compare_tables,
    harmonic_mean,
    hmean_by_key,
    relative_error,
)


class TestHarmonicMean:
    def test_known_value(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4 / 3)

    def test_equal_values(self):
        assert harmonic_mean([0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_dominated_by_small_values(self):
        assert harmonic_mean([0.1, 10.0]) < arithmetic_mean([0.1, 10.0])

    def test_errors(self):
        with pytest.raises(ValueError):
            harmonic_mean([])
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            harmonic_mean([1.0, -2.0])
        with pytest.raises(ValueError):
            arithmetic_mean([])

    def test_hmean_by_key(self):
        result = hmean_by_key([("a", 1.0), ("a", 2.0), ("b", 3.0)])
        assert result["a"] == pytest.approx(4 / 3)
        assert result["b"] == pytest.approx(3.0)

    def test_relative_error(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.9, 1.0) == pytest.approx(-0.1)
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


class TestResultTable:
    def _table(self):
        return ResultTable(
            table_id="t",
            title="demo",
            columns=("c1", "c2"),
            rows=(("r1", {"c1": 0.5, "c2": 1.5}), ("r2", {"c1": 0.25})),
        )

    def test_value_lookup(self):
        table = self._table()
        assert table.value("r1", "c2") == 1.5
        with pytest.raises(KeyError):
            table.value("missing", "c1")
        with pytest.raises(KeyError):
            table.value("r2", "c2")  # missing cell

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            ResultTable(
                table_id="t",
                title="bad",
                columns=("c1",),
                rows=(("r1", {"zzz": 1.0}),),
            )

    def test_render_contains_values_and_dashes(self):
        text = self._table().render()
        assert "demo" in text
        assert "0.50" in text
        assert "-" in text  # missing cell placeholder

    def test_compare_tables(self):
        a = self._table()
        b = ResultTable(
            table_id="u",
            title="other",
            columns=("c1", "c2"),
            rows=(("r1", {"c1": 1.0}),),
        )
        pairs = compare_tables(a, b)
        assert pairs == [("r1", "c1", 0.5, 1.0)]


class TestPaperData:
    def test_all_eight_tables_present(self):
        assert set(PAPER_TABLES) == {f"table{i}" for i in range(1, 9)}

    def test_spot_values_from_the_text(self):
        assert PAPER_TABLES["table1"].value("scalar/CRAY-like", "M11BR5") == 0.44
        assert PAPER_TABLES["table1"].value("vectorizable/Simple", "M5BR2") == 0.30
        assert (
            PAPER_TABLES["table2"].value("scalar/Pure M11BR5", "actual") == 1.29
        )
        assert (
            PAPER_TABLES["table2"].value(
                "vectorizable/Serial M5BR2", "pseudo-dataflow"
            )
            == 1.09
        )
        assert PAPER_TABLES["table3"].value("1", "M11BR5 N-Bus") == 0.44
        assert PAPER_TABLES["table7"].value("M11BR5/R40", "x1 N-Bus") == 0.72
        assert PAPER_TABLES["table8"].value("M5BR2/R100", "x4 N-Bus") == 2.01

    def test_section33_quote(self):
        assert PAPER_SECTION33 == {"scalar": 0.72, "vectorizable": 0.81}

    def test_table1_row1_matches_table3_single_station(self):
        """Internal consistency of the paper's own numbers."""
        t1 = PAPER_TABLES["table1"]
        t3 = PAPER_TABLES["table3"]
        for config in ("M11BR5", "M11BR2", "M5BR5", "M5BR2"):
            assert t1.value("scalar/CRAY-like", config) == t3.value(
                "1", f"{config} N-Bus"
            )

    def test_paper_ruu_monotone_in_size(self):
        t7 = PAPER_TABLES["table7"]
        for config in ("M11BR5", "M5BR2"):
            series = [
                t7.value(f"{config}/R{size}", "x4 N-Bus")
                for size in (10, 20, 30, 40, 50, 100)
            ]
            assert series == sorted(series)


class TestSimulatorRegistry:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("simple", "Simple"),
            ("cray", "CRAY-like"),
            ("cray-like", "CRAY-like"),
            ("serialmemory", "SerialMemory"),
            ("nonsegmented", "NonSegmented"),
        ],
    )
    def test_fixed_specs(self, spec, expected):
        assert build_simulator(spec).name == expected

    def test_parameterised_specs(self):
        sim = build_simulator("inorder:4:1bus")
        assert sim.issue_units == 4
        assert sim.bus_kind is BusKind.ONE_BUS
        sim = build_simulator("ooo:8")
        assert sim.issue_units == 8
        sim = build_simulator("ruu:2:50:nbus")
        assert sim.ruu_size == 50

    def test_study_switch_spellings(self):
        """Each modelling switch the studies flip is a spelling of the
        machine they used to build by constructor."""
        sim = build_simulator("ooo:4:1bus:war=off")
        assert (sim.issue_units, sim.bus_kind, sim.enforce_war) == (
            4, BusKind.ONE_BUS, False
        )
        assert build_simulator("ooo:4").enforce_war
        sim = build_simulator("ruu:4:50:bypass=off")
        assert (sim.bypass, sim.ordered_memory, sim.fu_copies) == (
            False, False, 1
        )
        sim = build_simulator("ruu:4:50:mem=ordered:fu=2:1bus")
        assert (sim.bypass, sim.ordered_memory, sim.fu_copies) == (
            True, True, 2
        )
        assert sim.bus_kind is BusKind.ONE_BUS
        chained, unchained = (
            build_simulator(spec) for spec in ("cray", "cray-unchained")
        )
        assert chained.vector_chaining and not unchained.vector_chaining
        assert (unchained.fu_pipelined, unchained.memory_interleaved) == (
            True, True
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "bogus", "inorder", "ruu:2", "inorder:2:zbus", "simple:3",
         "inorder:4:war=off", "ooo:4:war=maybe",
         "ruu:4:50:bypass=off:bypass=on", "ruu:4:50:mem=random",
         "ruu:4:50:nbus:xbar", "cray-unchained:2"],
    )
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            build_simulator(bad)

    def test_available_specs_mentions_everything(self):
        text = available_specs()
        for word in ("simple", "inorder", "ooo", "ruu"):
            assert word in text


class TestMemorySystemSpecs:
    def test_cache_spec(self):
        sim = build_simulator("cache:1024")
        assert "cache 1024w" in sim.name

    def test_cache_spec_with_latencies(self):
        sim = build_simulator("cache:256:3:20")
        # Build succeeded with custom hit/miss latencies.
        assert "cache" in sim.name

    def test_banked_spec(self):
        sim = build_simulator("banked:16:4")
        assert "16 banks" in sim.name

    def test_bad_memory_specs(self):
        with pytest.raises(ValueError):
            build_simulator("cache")
        with pytest.raises(ValueError):
            build_simulator("banked")
