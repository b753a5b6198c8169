"""Tests for stall attribution, pipeline timelines and critical paths."""

import pytest

from repro.analysis import (
    critical_path,
    record_schedule,
    render_timeline,
    stall_breakdown,
)
from repro.core import (
    M5BR2,
    M11BR5,
    STANDARD_CONFIGS,
    build_simulator,
    cray_like_machine,
    fastpath,
    serial_memory_machine,
)
from repro.core.scoreboard import StallReason
from repro.isa import FunctionalUnit
from repro.limits import pseudo_dataflow_schedule
from repro.obs.events import EventCollector, EventKind, schedule_from_events
from repro.trace import trace_source

from helpers import aadd, fadd, fmul, jan, loads, make_trace, si

#: The scoreboard machines stall attribution covers.
SCOREBOARD_SPECS = ("cray", "serialmemory", "nonsegmented")


def _observed(trace, config, machine):
    """The reference loop's events for one replay, and its result."""
    collector = EventCollector()
    result = machine.simulate_observed(trace, config, collector)
    return collector, result


def _stalls(trace, machine=None, config=M11BR5):
    """seq -> (reason, cycles) of the reference loop's STALL events."""
    collector, _ = _observed(trace, config, machine or cray_like_machine())
    return {
        event.seq: (event.reason, event.cycles)
        for event in collector.of_kind(EventKind.STALL)
    }


class TestIssueRecords:
    """Per-instruction records: the compiled loop's ``(issue, complete)``
    schedule, and the reference loop's STALL events, which carry each
    instruction's binding constraint."""

    def test_records_cover_every_instruction(self, loop5_trace):
        schedule = record_schedule(loop5_trace, M11BR5)
        assert len(schedule) == len(loop5_trace)
        assert all(complete >= issue for issue, complete in schedule)

    def test_issue_times_non_decreasing(self, loop5_trace):
        schedule = record_schedule(loop5_trace, M11BR5)
        for earlier, later in zip(schedule, schedule[1:]):
            assert later[0] > earlier[0]  # single issue unit

    def test_recorded_run_matches_plain_run(self, loop5_trace):
        machine = cray_like_machine()
        plain = machine.simulate(loop5_trace, M11BR5)
        collector, observed = _observed(loop5_trace, M11BR5, machine)
        assert plain.cycles == observed.cycles
        assert record_schedule(loop5_trace, M11BR5) == schedule_from_events(
            collector.events,
            len(loop5_trace),
            branch_latency=M11BR5.branch_latency,
        )

    def test_raw_stall_attributed(self):
        trace = make_trace([loads(1, 1), fadd(2, 1, 1)])
        assert _stalls(trace)[1] == ("RAW", 10)  # issue 11 instead of 1

    def test_waw_stall_attributed(self):
        trace = make_trace([si(1), fmul(2, 1, 1), si(2)])
        assert _stalls(trace)[2][0] == "WAW"

    def test_branch_stall_attributed(self):
        trace = make_trace([si(1), jan(True), si(2)])
        assert _stalls(trace)[2] == ("BRANCH", 4)

    def test_unit_stall_attributed_on_serial_memory(self):
        trace = make_trace([loads(1, 1), loads(2, 1)])
        stalls = _stalls(trace, serial_memory_machine())
        assert stalls[1][0] == "UNIT"

    def test_back_to_back_has_no_stall(self):
        trace = make_trace([si(1), aadd(1, 1, 1)])
        assert 1 not in _stalls(trace)


def _assert_matches_reference(trace, config, spec):
    """stall_breakdown, with the fast path on and off, equals the
    reference replay's STALL totals and ISSUE count."""
    machine = build_simulator(spec)
    collector, result = _observed(trace, config, machine)
    expected = collector.stall_cycles_by_reason()
    issues = len(collector.of_kind(EventKind.ISSUE))
    for switch in (True, False):
        previous = fastpath.set_enabled(switch)
        try:
            breakdown = stall_breakdown(trace, config, machine)
        finally:
            fastpath.set_enabled(previous)
        stalled = {
            reason.name: cycles
            for reason, cycles in breakdown.stalled_by.items()
            if cycles
        }
        assert stalled == expected, (spec, config.name, switch)
        assert breakdown.issue_cycles == issues
        assert breakdown.total_cycles == result.cycles


class TestStallBreakdown:
    def test_accounting_identity(self, loop5_trace):
        breakdown = stall_breakdown(loop5_trace, M11BR5)
        # issue cycles + stall cycles <= total (the tail drain is neither).
        assert breakdown.issue_cycles + breakdown.stall_cycles <= (
            breakdown.total_cycles
        )
        assert breakdown.stall_cycles > 0

    def test_recurrence_loop_is_raw_bound(self, loop5_trace):
        breakdown = stall_breakdown(loop5_trace, M11BR5)
        assert breakdown.fraction(StallReason.RAW) > 0.3

    def test_fast_machine_stalls_less(self, loop5_trace):
        slow = stall_breakdown(loop5_trace, M11BR5)
        fast = stall_breakdown(loop5_trace, M5BR2)
        assert fast.stall_cycles < slow.stall_cycles

    def test_event_replay_matches_telemetry(self, small_traces):
        for trace in small_traces.values():
            for spec in SCOREBOARD_SPECS:
                for config in STANDARD_CONFIGS:
                    _assert_matches_reference(trace, config, spec)

    @pytest.mark.parametrize("spec", ["ruu:4:10", "tomasulo"])
    def test_reasons_outside_the_scoreboard_vocabulary_rejected(self, spec):
        trace = trace_source("kernel:1")
        with pytest.raises(ValueError, match="stall attribution"):
            stall_breakdown(trace, M11BR5, build_simulator(spec))

    def test_render(self, loop5_trace):
        text = stall_breakdown(loop5_trace, M11BR5).render()
        assert "source register" in text
        assert "CRAY-like" in text


class TestTimeline:
    @pytest.mark.parametrize("spec", ["ruu:4:50", "ooo:4"])
    def test_schedule_matches_reference_events(self, small_traces, spec):
        machine = build_simulator(spec)
        for loop in (1, 5, 12):
            trace = small_traces[loop]
            collector, _ = _observed(trace, M11BR5, machine)
            assert record_schedule(trace, M11BR5, machine) == (
                schedule_from_events(
                    collector.events,
                    len(trace),
                    branch_latency=M11BR5.branch_latency,
                )
            ), (spec, loop)

    def test_render_contains_markers(self, loop5_trace):
        schedule = record_schedule(loop5_trace, M11BR5)
        text = render_timeline(loop5_trace, schedule, first=10, count=8)
        assert "I" in text
        assert "*" in text
        assert "LOADS" in text

    def test_empty_window_rejected(self, loop5_trace):
        schedule = record_schedule(loop5_trace, M11BR5)
        with pytest.raises(ValueError):
            render_timeline(loop5_trace, schedule, first=10 ** 9, count=5)

    def test_width_clipped(self, loop5_trace):
        schedule = record_schedule(loop5_trace, M11BR5)
        text = render_timeline(
            loop5_trace, schedule, first=0, count=30, max_width=40
        )
        assert all(len(line) <= 36 + 40 for line in text.splitlines())


class TestCriticalPath:
    def test_exact_chain(self):
        # si -> fadd -> fmul is the whole path.
        trace = make_trace([si(1), fadd(2, 1, 1), fmul(3, 2, 2), aadd(1, 1, 1)])
        path = critical_path(trace, M11BR5)
        assert path.indices == (0, 1, 2)
        assert path.makespan == 1 + 6 + 7
        assert path.dominant_unit() is FunctionalUnit.FP_MULTIPLY

    def test_branch_chain(self):
        trace = make_trace([jan(True), jan(True), si(1)])
        path = critical_path(trace, M11BR5)
        # branch(5) -> branch(10) -> si(11): all three on the path.
        assert path.indices == (0, 1, 2)
        assert path.makespan == 11

    def test_path_completion_times_increase(self, loop5_trace):
        schedule = pseudo_dataflow_schedule(loop5_trace, M11BR5, detail=True)
        path = schedule.critical_path()
        completes = [schedule.completes[i] for i in path]
        assert completes == sorted(completes)
        assert completes[-1] == schedule.makespan

    def test_recurrence_path_is_fp_dominated(self, loop5_trace):
        path = critical_path(loop5_trace, M11BR5)
        fp = path.unit_cycles[FunctionalUnit.FP_MULTIPLY] + path.unit_cycles[
            FunctionalUnit.FP_ADD
        ]
        # At the small test size the one prologue load still carries a
        # visible share; at full size the FP share exceeds 95%.
        assert fp / path.makespan > 0.85

    def test_detail_required_for_path(self, loop5_trace):
        schedule = pseudo_dataflow_schedule(loop5_trace, M11BR5)
        with pytest.raises(ValueError):
            schedule.critical_path()

    def test_render(self, loop5_trace):
        path = critical_path(loop5_trace, M11BR5)
        text = path.render(loop5_trace)
        assert "critical path" in text
        assert "first hops" in text
