"""Property and edge-case tests for the harmonic-mean aggregation layer.

The paper's per-class numbers are harmonic means of per-loop issue
rates, and the engine's parallel merge must be independent of completion
order.  These tests pin the algebraic properties that make both true:
strictness on empty/non-positive input, exactness on singletons, and
permutation invariance of the plan-order merge.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.harness.aggregate import (
    arithmetic_mean,
    harmonic_mean,
    hmean_by_key,
    relative_error,
)
from repro.harness.engine import GroupOutcome, merge_outcomes
from repro.harness.plans import Cell, ExperimentPlan


class TestHarmonicMean:
    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            harmonic_mean([])

    def test_zero_rate_raises(self):
        # A zero issue rate would mean an infinite-cycle loop; feeding it
        # to the mean silently would make the whole class look finite.
        with pytest.raises(ValueError, match="positive"):
            harmonic_mean([0.5, 0.0, 0.25])

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError, match="positive"):
            harmonic_mean([0.5, -0.1])

    def test_singleton_is_identity(self):
        assert harmonic_mean([0.37]) == pytest.approx(0.37)

    def test_constant_sequence_is_that_constant(self):
        assert harmonic_mean([0.25] * 7) == pytest.approx(0.25)

    def test_known_value(self):
        # hmean(1, 1/2) = 2 / (1 + 2) = 2/3.
        assert harmonic_mean([1.0, 0.5]) == pytest.approx(2.0 / 3.0)

    def test_permutation_invariance(self):
        values = [0.11, 0.43, 0.79, 1.5, 0.26]
        reference = harmonic_mean(values)
        for perm in itertools.permutations(values):
            assert harmonic_mean(perm) == pytest.approx(reference, rel=1e-12)

    def test_never_exceeds_arithmetic_mean(self):
        rng = random.Random(7)
        for _ in range(100):
            values = [rng.uniform(0.01, 3.0) for _ in range(rng.randint(1, 9))]
            assert harmonic_mean(values) <= arithmetic_mean(values) + 1e-12

    def test_bounded_by_extremes(self):
        rng = random.Random(11)
        for _ in range(100):
            values = [rng.uniform(0.01, 3.0) for _ in range(rng.randint(1, 9))]
            mean = harmonic_mean(values)
            assert min(values) - 1e-12 <= mean <= max(values) + 1e-12

    def test_scale_equivariance(self):
        values = [0.2, 0.4, 0.8]
        assert harmonic_mean([3 * v for v in values]) == pytest.approx(
            3 * harmonic_mean(values)
        )


class TestHmeanByKey:
    def test_groups_independently(self):
        result = hmean_by_key(
            [("a", 1.0), ("b", 0.5), ("a", 0.5), ("b", 0.5)]
        )
        assert result["a"] == pytest.approx(2.0 / 3.0)
        assert result["b"] == pytest.approx(0.5)

    def test_single_member_groups(self):
        result = hmean_by_key([("x", 0.7), ("y", 1.3)])
        assert result == {
            "x": pytest.approx(0.7),
            "y": pytest.approx(1.3),
        }

    def test_empty_input_is_empty(self):
        assert hmean_by_key([]) == {}


class TestRelativeError:
    def test_zero_reference_raises(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)

    def test_signed(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.9, 1.0) == pytest.approx(-0.1)


def _plan_and_outcomes():
    """A two-row, two-column plan whose rows group multiple loops."""
    columns = ("M11BR5", "M5BR2")
    cells = []
    values = {}
    rate = 0.10
    for row in ("scalar", "vectorizable"):
        for loop in (1, 2, 3):
            cells.append(
                Cell(
                    source=f"kernel:{loop}:n=8",
                    machine="cray",
                    config="M11BR5",
                    row=row,
                    columns=columns,
                )
            )
            rate += 0.07
            values[len(cells) - 1] = {
                "M11BR5": rate,
                "M5BR2": rate * 1.5,
            }
    plan = ExperimentPlan(
        table_id="test",
        title="merge test",
        columns=columns,
        rows=("scalar", "vectorizable"),
        cells=tuple(cells),
    )
    return plan, _groups(plan, values)


def _groups(plan, values):
    """One outcome per trace source, like the engine's sweep groups."""
    by_source = {}
    for index, vals in values.items():
        by_source.setdefault(plan.cells[index].source, []).append(
            (index, vals)
        )
    return [
        GroupOutcome(
            source=source,
            indices=tuple(index for index, _ in pairs),
            values=tuple(vals for _, vals in pairs),
            seconds=0.0,
            hits=0,
            trace_source="built",
        )
        for source, pairs in by_source.items()
    ]


def _cell_values(plan, outcomes):
    """``(row, values)`` of every cell the outcomes carry."""
    return [
        (plan.cells[index].row, vals)
        for outcome in outcomes
        for index, vals in zip(outcome.indices, outcome.values)
    ]


class TestMergeOutcomes:
    def test_merge_is_plan_order_harmonic_mean(self):
        plan, outcomes = _plan_and_outcomes()
        table = merge_outcomes(plan, outcomes)
        by_row = dict(table.rows)
        for row in plan.rows:
            for column in plan.columns:
                group = [
                    vals[column]
                    for cell_row, vals in _cell_values(plan, outcomes)
                    if cell_row == row
                ]
                assert by_row[row][column] == pytest.approx(
                    harmonic_mean(group)
                )

    def test_merge_ignores_completion_order(self):
        plan, outcomes = _plan_and_outcomes()
        reference = merge_outcomes(plan, list(outcomes))
        rng = random.Random(3)
        for _ in range(10):
            shuffled = list(outcomes)
            rng.shuffle(shuffled)
            assert merge_outcomes(plan, shuffled) == reference

    def test_single_cell_group_passes_through(self):
        columns = ("M11BR5",)
        plan = ExperimentPlan(
            table_id="test",
            title="singleton",
            columns=columns,
            rows=("only",),
            cells=(
                Cell(
                    source="kernel:5:n=8",
                    machine="cray",
                    config="M11BR5",
                    row="only",
                    columns=columns,
                ),
            ),
        )
        table = merge_outcomes(plan, _groups(plan, {0: {"M11BR5": 0.42}}))
        assert dict(table.rows)["only"]["M11BR5"] == pytest.approx(0.42)

    def test_missing_group_leaves_row_sparse(self):
        plan, outcomes = _plan_and_outcomes()
        scalar_only = {
            index: vals
            for outcome in outcomes
            for index, vals in zip(outcome.indices, outcome.values)
            if plan.cells[index].row == "scalar"
        }
        table = merge_outcomes(plan, _groups(plan, scalar_only))
        by_row = dict(table.rows)
        assert by_row["scalar"]
        assert by_row["vectorizable"] == {}

    def test_nan_rates_are_rejected(self):
        # NaN slips past the <= 0 guard only by never comparing true;
        # the sum then poisons the group. Document the actual contract:
        # the mean of a NaN-bearing group is NaN, never a silent number.
        assert math.isnan(harmonic_mean([0.5, float("nan")]))
