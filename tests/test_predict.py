"""Tests for branch predictors and speculative (``spec`` family) issue."""

import pytest

from repro.core import BusKind, M5BR2, M11BR5
from repro.core.spec import SpecMachine
from repro.kernels import build_kernel
from repro.predict import (
    AlwaysTakenPredictor,
    BackwardTakenPredictor,
    OneBitPredictor,
    TwoBitPredictor,
)
from repro.trace import Trace, TraceEntry

from helpers import aadd, jan, make_trace, si


class TestPredictorLogic:
    def test_always_taken(self):
        p = AlwaysTakenPredictor()
        assert p.predict(0, backward=False) is True
        assert p.predict(5, backward=True) is True

    def test_backward_taken(self):
        p = BackwardTakenPredictor()
        assert p.predict(0, backward=True) is True
        assert p.predict(0, backward=False) is False

    def test_one_bit_learns_last_outcome(self):
        p = OneBitPredictor()
        assert p.predict(3, backward=True) is True  # cold: BTFN
        p.update(3, False)
        assert p.predict(3, backward=True) is False
        p.update(3, True)
        assert p.predict(3, backward=True) is True

    def test_two_bit_hysteresis(self):
        p = TwoBitPredictor()
        p.update(7, True)
        p.update(7, True)  # strongly taken
        p.update(7, False)  # one not-taken does not flip it
        assert p.predict(7, backward=True) is True
        p.update(7, False)
        p.update(7, False)
        assert p.predict(7, backward=True) is False

    def test_per_branch_state_is_independent(self):
        p = OneBitPredictor()
        p.update(1, False)
        assert p.predict(2, backward=True) is True

    def test_stats(self):
        p = AlwaysTakenPredictor()
        assert p.record(True, True) is True
        assert p.record(True, False) is False
        assert p.stats.predictions == 2
        assert p.stats.accuracy == 0.5


class TestSpeculativeRUU:
    """Speculative issue on the RUU discipline: the ``spec`` family."""

    def _loop_trace(self, iterations=20):
        """A counted loop: decrement, branch (taken until the last)."""
        items = [si(1)]
        for i in range(iterations):
            items.append(aadd(0, 0, -1))
            items.append(jan(i < iterations - 1))
        return make_trace(items)

    def test_good_prediction_speeds_up_loops(self):
        trace = self._loop_trace()
        plain = SpecMachine(4, 50, predictor="none")
        spec = SpecMachine(4, 50, predictor="always")
        assert (
            spec.simulate(trace, M11BR5).cycles
            < plain.simulate(trace, M11BR5).cycles
        )

    def test_all_wrong_prediction_no_faster_than_plain(self):
        # A predictor wrong on every branch leaves every branch waiting
        # for resolution, exactly like no speculation.
        trace = self._loop_trace()
        plain = SpecMachine(4, 50, predictor="none")
        wrong = SpecMachine(4, 50, predictor="wrong")
        assert (
            wrong.simulate(trace, M11BR5).cycles
            >= plain.simulate(trace, M11BR5).cycles
        )

    def test_misprediction_penalty_costs(self):
        trace = self._loop_trace()
        cheap = SpecMachine(4, 50, predictor="wrong")
        costly = SpecMachine(4, 50, predictor="wrong", recovery_penalty=6)
        assert (
            costly.simulate(trace, M11BR5).cycles
            > cheap.simulate(trace, M11BR5).cycles
        )

    def test_accuracy_reported_in_detail(self):
        trace = self._loop_trace()
        spec = SpecMachine(2, 20, predictor="2bit")
        result = spec.simulate(trace, M11BR5)
        assert 0.0 < result.detail["prediction_accuracy"] <= 1.0

    def test_kernel_loops_predict_well(self, small_traces):
        """Loop-closing branches are highly predictable: every kernel
        should see >60% accuracy and no slowdown with a 2-bit
        predictor."""
        plain = SpecMachine(4, 50, predictor="none")
        spec = SpecMachine(4, 50, predictor="2bit")
        for trace in small_traces.values():
            base = plain.simulate(trace, M11BR5)
            fast = spec.simulate(trace, M11BR5)
            # Short test loops exit often (the cold mispredict per loop
            # instance weighs more); full-size loops exceed 95%.
            assert fast.detail["prediction_accuracy"] > 0.60
            # Isotone timing: relaxing branch waits never slows it down.
            assert fast.cycles <= base.cycles

    def test_full_size_loop_accuracy_is_high(self):
        trace = build_kernel(12).trace()
        spec = SpecMachine(4, 50, predictor="2bit")
        result = spec.simulate(trace, M11BR5)
        assert result.detail["prediction_accuracy"] > 0.95

    def test_prediction_composes_with_one_bus(self, small_traces):
        spec = SpecMachine(4, 50, BusKind.ONE_BUS, predictor="2bit")
        for trace in list(small_traces.values())[:3]:
            result = spec.simulate(trace, M11BR5)
            assert result.issue_rate > 0

    def test_name_mentions_predictor(self):
        spec = SpecMachine(2, 20, predictor="1bit")
        assert "predict:1bit" in spec.name

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            SpecMachine(2, 20, recovery_penalty=-1)

    def test_prediction_removes_branch_stalls(self, small_traces):
        trace = small_traces[12]
        plain = SpecMachine(4, 50, predictor="none")
        spec = SpecMachine(4, 50, predictor="2bit")
        assert (
            spec.simulate(trace, M11BR5).detail["branch_stall_cycles"]
            < plain.simulate(trace, M11BR5).detail["branch_stall_cycles"]
        )

    def test_limits_still_respected_without_branch_serialisation(self):
        """With perfect prediction the control constraint disappears, so
        the plain limit (which serialises on branches) may be exceeded;
        the resource bound and the issue width still hold."""
        from repro.limits import compute_limits

        trace = self._loop_trace(40)
        spec = SpecMachine(8, 100, predictor="perfect")
        rate = spec.issue_rate(trace, M11BR5)
        limits = compute_limits(trace, M11BR5)
        assert rate > limits.actual_rate
        assert rate <= limits.resource_rate * 1.0001
        assert rate <= spec.issue_units
