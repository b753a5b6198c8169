"""Integration tests: the table experiments at reduced problem sizes.

These run the real experiment code (kernel build -> verify -> trace ->
simulate -> aggregate) with small loops, then assert the *qualitative*
findings the paper draws from each table.  Absolute values differ from the
paper (different compiler, scaled loops); the shapes must not.
"""

import pytest

import repro.api as api
from repro.harness import PAPER_TABLES, compare_tables

CONFIG_NAMES = ("M11BR5", "M11BR2", "M5BR5", "M5BR2")


def _table(table_id, sizes, **overrides):
    return api.run_table(
        table_id, sizes=sizes, workers=1, cache=False, **overrides
    ).table


@pytest.fixture(scope="module")
def t1(small_sizes):
    return _table("table1", small_sizes)


@pytest.fixture(scope="module")
def t2(small_sizes):
    return _table("table2", small_sizes)


@pytest.fixture(scope="module")
def t3(small_sizes):
    return _table("table3", small_sizes, stations=(1, 2, 4, 8))


@pytest.fixture(scope="module")
def t5(small_sizes):
    return _table("table5", small_sizes, stations=(1, 2, 4, 8))


@pytest.fixture(scope="module")
def t7(small_sizes):
    return _table(
        "table7", small_sizes, ruu_sizes=(10, 20, 50), units=(1, 2, 4)
    )


class TestTable1Shape:
    def test_labels_match_paper(self, t1):
        assert t1.row_labels == PAPER_TABLES["table1"].row_labels
        assert t1.columns == PAPER_TABLES["table1"].columns

    def test_machine_ordering_per_column(self, t1):
        for cls in ("scalar", "vectorizable"):
            for config in CONFIG_NAMES:
                simple = t1.value(f"{cls}/Simple", config)
                serial = t1.value(f"{cls}/SerialMemory", config)
                nonseg = t1.value(f"{cls}/NonSegmented", config)
                cray = t1.value(f"{cls}/CRAY-like", config)
                assert simple <= serial <= nonseg <= cray

    def test_fast_memory_and_branch_help(self, t1):
        for label in t1.row_labels:
            assert t1.value(label, "M5BR2") >= t1.value(label, "M11BR5")

    def test_interleaving_gains_more_than_pipelining_for_scalar(self, t1):
        """Paper Section 3.2: interleaving the memory is the big win."""
        interleave_gain = t1.value("scalar/NonSegmented", "M11BR5") - t1.value(
            "scalar/SerialMemory", "M11BR5"
        )
        pipeline_gain = t1.value("scalar/CRAY-like", "M11BR5") - t1.value(
            "scalar/NonSegmented", "M11BR5"
        )
        assert interleave_gain > pipeline_gain


class TestTable2Shape:
    def test_labels_match_paper(self, t2):
        assert set(t2.row_labels) == set(PAPER_TABLES["table2"].row_labels)

    def test_actual_is_binding(self, t2):
        for label in t2.row_labels:
            actual = t2.value(label, "actual")
            assert actual <= t2.value(label, "pseudo-dataflow") + 1e-9
            assert actual <= t2.value(label, "resource") + 1e-9

    def test_serial_below_pure(self, t2):
        for cls in ("scalar", "vectorizable"):
            for config in CONFIG_NAMES:
                pure = t2.value(f"{cls}/Pure {config}", "actual")
                serial = t2.value(f"{cls}/Serial {config}", "actual")
                assert serial <= pure

    def test_vector_pure_limits_exceed_scalar(self, t2):
        for config in CONFIG_NAMES:
            assert t2.value(f"vectorizable/Pure {config}", "actual") > t2.value(
                f"scalar/Pure {config}", "actual"
            )

    def test_pure_limits_exceed_one_for_vector(self, t2):
        """The paper's motivation: multiple issue is worth investigating."""
        for config in CONFIG_NAMES:
            assert t2.value(f"vectorizable/Pure {config}", "actual") > 1.0

    def test_serial_limits_mostly_below_one(self, t2):
        assert t2.value("scalar/Serial M11BR5", "actual") < 1.0

    def test_resource_limit_insensitive_to_branch_time(self, t2):
        for cls in ("scalar", "vectorizable"):
            assert t2.value(f"{cls}/Pure M11BR5", "resource") == pytest.approx(
                t2.value(f"{cls}/Pure M11BR2", "resource")
            )


class TestTable3Shape:
    def test_single_station_matches_table1_cray(self, t1, t3):
        for config in CONFIG_NAMES:
            assert t3.value("1", f"{config} N-Bus") == pytest.approx(
                t1.value("scalar/CRAY-like", config), rel=1e-9
            )

    def test_saturates_by_four_stations(self, t3):
        """Paper: 8 stations is almost equivalent to 3-4 stations."""
        for config in CONFIG_NAMES:
            r4 = t3.value("4", f"{config} N-Bus")
            r8 = t3.value("8", f"{config} N-Bus")
            assert r8 <= r4 * 1.10

    def test_one_bus_barely_matters(self, t3):
        """Paper: the single result bus is never saturated here."""
        for config in CONFIG_NAMES:
            for stations in ("1", "2", "4", "8"):
                nbus = t3.value(stations, f"{config} N-Bus")
                onebus = t3.value(stations, f"{config} 1-Bus")
                assert onebus <= nbus + 1e-9
                assert onebus >= nbus * 0.93


class TestTable5Shape:
    def test_ooo_at_least_inorder(self, t3, t5):
        for config in CONFIG_NAMES:
            for stations in ("1", "2", "4", "8"):
                assert (
                    t5.value(stations, f"{config} N-Bus")
                    >= t3.value(stations, f"{config} N-Bus") - 1e-9
                )

    def test_single_station_identical_to_inorder(self, t3, t5):
        for config in CONFIG_NAMES:
            assert t5.value("1", f"{config} N-Bus") == pytest.approx(
                t3.value("1", f"{config} N-Bus")
            )


class TestTable7Shape:
    def test_monotone_in_ruu_size(self, t7):
        for config in CONFIG_NAMES:
            for column in ("x1 N-Bus", "x4 N-Bus"):
                series = [
                    t7.value(f"{config}/R{size}", column)
                    for size in (10, 20, 50)
                ]
                assert series[0] <= series[1] * 1.02
                assert series[1] <= series[2] * 1.02

    def test_more_issue_units_help(self, t7):
        for config in CONFIG_NAMES:
            assert (
                t7.value(f"{config}/R50", "x4 N-Bus")
                >= t7.value(f"{config}/R50", "x1 N-Bus") - 1e-9
            )

    def test_one_bus_below_nbus(self, t7):
        for config in CONFIG_NAMES:
            assert (
                t7.value(f"{config}/R50", "x4 1-Bus")
                <= t7.value(f"{config}/R50", "x4 N-Bus") + 1e-9
            )

    def test_ruu_beats_plain_cray(self, t1, t7):
        """Section 5.3: dependency resolution is the single biggest step."""
        for config in CONFIG_NAMES:
            assert t7.value(f"{config}/R50", "x1 N-Bus") > t1.value(
                "scalar/CRAY-like", config
            )


class TestSection33:
    def test_dependency_resolution_single_issue(self, small_sizes, t7):
        rates = api.section33(small_sizes)
        assert 0 < rates["scalar"] < 1.0
        assert 0 < rates["vectorizable"] < 1.0
        # The quote's cells are Table 7's single-unit R50 N-Bus cells.
        assert rates["scalar"] == t7.value("M11BR5/R50", "x1 N-Bus")


class TestComparisonMachinery:
    def test_measured_tables_compare_against_paper(self, t1):
        pairs = compare_tables(t1, PAPER_TABLES["table1"])
        assert len(pairs) == 32
