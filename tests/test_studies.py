"""The extension studies' findings, asserted on their plans' tables.

Each study is a plan (``repro tables <id>``) run at its own sizes; the
values are pinned bit-exactly by ``test_golden_study_tables.py``.  These
tests hold the *qualitative* findings EXPERIMENTS.md draws from each
study, so a model change that keeps a table plausible but flips a
finding fails here by name.
"""

import pytest

from repro.harness import PAPER_TABLES

CLASS_CONFIG_COLUMNS = (
    "scalar M11BR5", "scalar M5BR2", "vectorizable M11BR5",
    "vectorizable M5BR2",
)
CLASSES = ("scalar", "vectorizable")
MACHINES = ("CRAY-like", "ooo x4", "RUU x4 R=50")


def _rows(table):
    return {row: dict(values) for row, values in table.rows}


@pytest.fixture(scope="module")
def ablations(study_table):
    return _rows(study_table("ablations"))


class TestAblations:
    def test_columns(self, study_table):
        assert study_table("ablations").columns == CLASS_CONFIG_COLUMNS

    def test_war_enforcement_barely_moves_ooo(self, ablations):
        strict = ablations["ooo x4"]
        loose = ablations["ooo x4, WAR ignored"]
        for column, value in strict.items():
            assert abs(loose[column] - value) / value < 0.10

    def test_removing_ruu_bypass_costs_rate(self, ablations):
        with_bypass = ablations["RUU x4 R=50"]
        without = ablations["RUU x4 R=50, no bypass"]
        for column in with_bypass:
            assert without[column] <= with_bypass[column] + 1e-9

    def test_xbar_matches_nbus_and_one_bus_trails(self, ablations):
        """Section 5.1: X-Bar results are "essentially the same" as
        N-Bus."""
        xbar = ablations["in-order x4, X-Bar"]
        nbus = ablations["in-order x4, N-Bus"]
        onebus = ablations["in-order x4, 1-Bus"]
        for column in xbar:
            assert xbar[column] >= nbus[column] - 1e-9
            assert abs(xbar[column] - nbus[column]) / nbus[column] < 0.03
            assert onebus[column] <= nbus[column] + 1e-9

    def test_ordered_memory_costs_throughput(self, ablations):
        free = ablations["RUU x4 R=50"]
        ordered = ablations["RUU x4 R=50, ordered memory"]
        for column in free:
            assert ordered[column] <= free[column] + 1e-9

    def test_scheduled_code_issues_faster(self, ablations):
        scheduled = ablations["CRAY-like"]
        naive = ablations["CRAY-like, naive code"]
        for column in scheduled:
            assert scheduled[column] >= naive[column] * 0.999


class TestUnrolling:
    @pytest.fixture(scope="class")
    def unrolling(self, study_table):
        return _rows(study_table("unrolling"))

    def test_branch_limited_loop_gains_limit(self, unrolling):
        assert (
            unrolling["loop 12 x4"]["actual"]
            > unrolling["loop 12 x1"]["actual"] * 1.3
        )

    def test_recurrence_gains_nothing(self, unrolling):
        assert (
            unrolling["loop 05 x4"]["actual"]
            < unrolling["loop 05 x1"]["actual"] * 1.05
        )

    def test_ruu_converts_the_limit_gain(self, unrolling):
        assert (
            unrolling["loop 12 x4"]["RUU x4 R=100"]
            > unrolling["loop 12 x1"]["RUU x4 R=100"] * 1.3
        )


class TestMemorySystem:
    @pytest.fixture(scope="class")
    def memory(self, study_table):
        return _rows(study_table("memory-system"))

    @pytest.mark.parametrize("class_label", CLASSES)
    def test_caches_sit_between_the_idealisations(self, memory, class_label):
        m11 = memory["ideal M11 (paper)"][class_label]
        m5 = memory["ideal M5 (paper)"][class_label]
        previous = m11
        for words in (256, 1024, 4096, 16384):
            rate = memory[f"cache {words}w (hit 5 / miss 11)"][class_label]
            assert m11 - 1e-9 <= rate <= m5 + 1e-9
            assert rate >= previous - 0.01  # grows with capacity
            previous = rate

    @pytest.mark.parametrize("class_label", CLASSES)
    def test_bank_conflicts_are_negligible(self, memory, class_label):
        banked = memory["banked 16x4, latency 11"][class_label]
        assert banked >= memory["ideal M11 (paper)"][class_label] * 0.97


class TestBranchPrediction:
    @pytest.fixture(scope="class")
    def prediction(self, study_table):
        return _rows(study_table("branch-prediction"))

    @pytest.mark.parametrize("column", CLASS_CONFIG_COLUMNS)
    def test_prediction_really_pays(self, prediction, column):
        assert (
            prediction["2-bit"][column]
            >= prediction["no prediction"][column] * 1.05
        )

    @pytest.mark.parametrize("column", CLASS_CONFIG_COLUMNS)
    def test_recovery_penalty_never_helps(self, prediction, column):
        assert (
            prediction["2-bit, 4-cycle penalty"][column]
            <= prediction["2-bit"][column] + 1e-9
        )


class TestFuDuplication:
    @pytest.fixture(scope="class")
    def duplication(self, study_table):
        return _rows(study_table("fu-duplication"))

    @pytest.mark.parametrize("class_label", CLASSES)
    def test_second_copy_never_hurts(self, duplication, class_label):
        assert (
            duplication["fu=2"][class_label]
            >= duplication["fu=1"][class_label] - 1e-9
        )

    @pytest.mark.parametrize("class_label", CLASSES)
    def test_diminishing_returns(self, duplication, class_label):
        one, two, four = (
            duplication[f"fu={copies}"][class_label] for copies in (1, 2, 4)
        )
        assert four - two <= two - one + 0.02


class TestVectorization:
    @pytest.fixture(scope="class")
    def vector(self, study_table):
        return _rows(study_table("vectorization"))

    def test_classic_vector_win(self, vector):
        for values in vector.values():
            assert values["speedup"] > 4.0
            assert values["speedup"] == (
                values["scalar M11"] / values["vector M11"]
            )

    def test_chaining_never_hurts(self, vector):
        for values in vector.values():
            assert values["no-chain"] >= values["vector M11"]

    def test_memory_latency_is_amortised(self, vector):
        """The M11 -> M5 gain is small for vector code, next to the
        scalar machines' ~25-40%."""
        for values in vector.values():
            gain = values["vector M11"] - values["vector M5"]
            assert gain / values["vector M11"] < 0.25


class TestWorkloadCharacteristics:
    @pytest.fixture(scope="class")
    def workload(self, study_table):
        return _rows(study_table("workload-characteristics"))

    def test_ruu_advantage_holds_with_chain_count(self, workload):
        def gain(row):
            return workload[row]["RUU x4 R=50"] / workload[row]["CRAY-like"]

        assert gain("chains=4") >= gain("chains=1") * 0.9

    def test_limits_dominate(self, workload):
        for values in workload.values():
            for machine in MACHINES:
                assert values[machine] <= values["actual"] * 1.0001


class TestCalibration:
    @pytest.mark.parametrize("column", CLASS_CONFIG_COLUMNS)
    def test_explicit_addressing_closes_toward_the_paper(
        self, study_table, column
    ):
        """Explicit addressing raises the CRAY-like rates toward, but
        not past, the paper's CFT-encoded numbers."""
        calibration = _rows(study_table("calibration"))
        class_label, config = column.split()
        paper = PAPER_TABLES["table1"].value(
            f"{class_label}/CRAY-like", config
        )
        explicit = calibration["explicit addressing"][column]
        assert explicit > calibration["folded (repo default)"][column]
        assert explicit <= paper * 1.05


class TestExtendedKernels:
    @pytest.fixture(scope="class")
    def extended(self, study_table):
        return _rows(study_table("extended-kernels"))

    def test_kernel24_is_the_control_flow_wall(self, extended):
        k24 = extended["kernel 24"]
        assert k24["RUU x4 R=50"] < k24["CRAY-like"] * 1.25

    @pytest.mark.parametrize("kernel", (18, 21))
    def test_dependency_resolution_pays_off(self, extended, kernel):
        values = extended[f"kernel {kernel}"]
        assert values["RUU x4 R=50"] > values["CRAY-like"] * 2.0

    def test_non_speculative_machines_respect_the_limit(self, extended):
        for values in extended.values():
            for machine in MACHINES:
                assert values[machine] <= values["actual"] * 1.0001

    def test_prediction_breaks_kernel24_wall(self, extended):
        """Min-updates are rare, so a 2-bit predictor turns the
        branch-serialised limit into a speedup past it."""
        k24 = extended["kernel 24"]
        assert k24["spec x4 2-bit"] > k24["actual"]


class TestSection33Spectrum:
    def test_dependency_resolution_is_the_big_win(self, study_table):
        """Section 3.3: the single-issue RUU lifts issue blocking by
        half again, in both loop classes."""
        spectrum = _rows(study_table("section33-spectrum"))
        blocking = spectrum["issue blocking (CRAY-like)"]
        ruu = spectrum["RUU x1 R=50"]
        for class_label in CLASSES:
            assert ruu[class_label] > blocking[class_label] * 1.5

    def test_ruu_row_is_the_section33_quote(self, study_table):
        spectrum = _rows(study_table("section33-spectrum"))
        section33 = _rows(study_table("section33"))
        for class_label in CLASSES:
            assert spectrum["RUU x1 R=50"][class_label] == (
                section33[class_label]["M11BR5"]
            )


class TestPerLoop:
    def test_lattice_up_to_the_actual_limit(self, study_table):
        """Per loop: Simple <= CRAY-like <= RUU x4 <= actual limit."""
        for label, values in study_table("per-loop").rows:
            assert values["Simple"] <= values["CRAY-like"] + 1e-9, label
            assert values["CRAY-like"] <= values["RUU x4 R=50"] + 1e-9, label
            assert values["RUU x4 R=50"] <= values["actual"] * 1.0001, label
