"""Tests for stall attribution, pipeline timelines and critical paths."""

import pytest

from repro.analysis import (
    critical_path,
    record_schedule,
    render_timeline,
    stall_breakdown,
)
from repro.core import M5BR2, M11BR5, cray_like_machine, serial_memory_machine
from repro.core.scoreboard import EventRecorder, StallReason
from repro.isa import FunctionalUnit
from repro.limits import pseudo_dataflow_schedule

from helpers import aadd, fadd, fmul, jan, loads, make_trace, si


class TestIssueRecords:
    def test_records_cover_every_instruction(self, loop5_trace):
        records = record_schedule(loop5_trace, M11BR5)
        assert len(records) == len(loop5_trace)
        assert [r.seq for r in records] == list(range(len(loop5_trace)))

    def test_issue_times_non_decreasing(self, loop5_trace):
        records = record_schedule(loop5_trace, M11BR5)
        for earlier, later in zip(records, records[1:]):
            assert later.issue > earlier.issue  # single issue unit

    def test_recorded_run_matches_plain_run(self, loop5_trace):
        machine = cray_like_machine()
        plain = machine.simulate(loop5_trace, M11BR5)
        records = []
        recorded = machine.simulate_observed(
            loop5_trace, M11BR5, EventRecorder(records.append)
        )
        assert plain.cycles == recorded.cycles
        assert len(records) == len(loop5_trace)

    def test_raw_stall_attributed(self):
        trace = make_trace([loads(1, 1), fadd(2, 1, 1)])
        records = record_schedule(trace, M11BR5)
        assert records[1].stall is StallReason.RAW
        assert records[1].stall_cycles == 10  # issue 11 instead of 1

    def test_waw_stall_attributed(self):
        trace = make_trace([si(1), fmul(2, 1, 1), si(2)])
        records = record_schedule(trace, M11BR5)
        assert records[2].stall is StallReason.WAW

    def test_branch_stall_attributed(self):
        trace = make_trace([si(1), jan(True), si(2)])
        records = record_schedule(trace, M11BR5)
        assert records[2].stall is StallReason.BRANCH
        assert records[2].stall_cycles == 4

    def test_unit_stall_attributed_on_serial_memory(self):
        trace = make_trace([loads(1, 1), loads(2, 1)])
        records = record_schedule(trace, M11BR5, serial_memory_machine())
        assert records[1].stall is StallReason.UNIT

    def test_back_to_back_has_no_stall(self):
        trace = make_trace([si(1), aadd(1, 1, 1)])
        records = record_schedule(trace, M11BR5)
        assert records[1].stall is StallReason.NONE
        assert records[1].stall_cycles == 0


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

    def test_event_replay_matches_telemetry(self, loop5_trace):
        from repro.core import fastpath

        fast = stall_breakdown(loop5_trace, M11BR5)
        previous = fastpath.set_enabled(False)
        try:
            replayed = stall_breakdown(loop5_trace, M11BR5)
        finally:
            fastpath.set_enabled(previous)
        assert fast.records == []
        assert len(replayed.records) == len(loop5_trace)
        assert replayed.stalled_by == fast.stalled_by
        assert replayed.total_cycles == fast.total_cycles
        assert replayed.issue_cycles == fast.issue_cycles

    def test_render(self, loop5_trace):
        text = stall_breakdown(loop5_trace, M11BR5).render()
        assert "source register" in text
        assert "CRAY-like" in text


class TestTimeline:
    def test_render_contains_markers(self, loop5_trace):
        records = record_schedule(loop5_trace, M11BR5)
        text = render_timeline(loop5_trace, records, first=10, count=8)
        assert "I" in text
        assert "*" in text
        assert "LOADS" in text

    def test_empty_window_rejected(self, loop5_trace):
        records = record_schedule(loop5_trace, M11BR5)
        with pytest.raises(ValueError):
            render_timeline(loop5_trace, records, first=10 ** 9, count=5)

    def test_width_clipped(self, loop5_trace):
        records = record_schedule(loop5_trace, M11BR5)
        text = render_timeline(
            loop5_trace, records, first=0, count=30, max_width=40
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
