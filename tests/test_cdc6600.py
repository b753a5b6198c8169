"""Golden-behaviour tests for the CDC 6600-style machine.

The dependency-resolution baseline suite pins the headline cycle counts;
this file pins the *mechanism*: per-instruction issue/complete schedules
(via the event stream), the WAW/unit/branch blocking rules one hazard at
a time, the pipelined-units ablation, and the compiled fast path's
bit-identity with the reference recurrence on hand-built corner cases.
"""

from __future__ import annotations

import pytest

from repro.core import M5BR2, M5BR5, M11BR2, M11BR5, fastpath
from repro.core.cdc6600 import CDC6600Machine
from repro.obs.events import EventCollector, EventKind

from helpers import (
    aadd,
    aadd_r,
    fadd,
    fmul,
    jan,
    jmp,
    loads,
    make_trace,
    si,
    stores,
)

CONFIGS = (M11BR5, M11BR2, M5BR5, M5BR2)


def schedule_of(machine, trace, config):
    """(issue, complete) per instruction, from the reference events."""
    collector = EventCollector()
    machine.simulate_observed(trace, config, collector)
    issues = collector.cycles_by_seq(EventKind.ISSUE)
    completes = collector.cycles_by_seq(EventKind.COMPLETE)
    return [(issues[e.seq], completes[e.seq]) for e in trace.entries]


class TestIssueDiscipline:
    def test_serial_chain_issues_every_cycle(self):
        # Independent ops: single-issue means one per cycle, back to back.
        machine = CDC6600Machine()
        trace = make_trace([si(1), si(2), si(3), si(4)])
        assert schedule_of(machine, trace, M11BR5) == [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
        ]

    def test_raw_waits_at_the_unit_not_at_issue(self):
        machine = CDC6600Machine()
        # fadd depends on the load but still issues in its slot; only its
        # *start* waits for S1 at cycle 11.
        trace = make_trace([loads(1, 1), fadd(2, 1, 1), si(3)])
        assert schedule_of(machine, trace, M11BR5) == [
            (0, 11),
            (1, 17),  # issued at 1, started at 11, 6-cycle add
            (2, 3),  # unaffected by the stalled fadd
        ]

    def test_waw_blocks_issue_until_first_write_completes(self):
        machine = CDC6600Machine()
        trace = make_trace([loads(1, 1), si(1), si(2)])
        sched = schedule_of(machine, trace, M11BR5)
        assert sched[1] == (11, 12)  # WAW on S1: waits for the load
        assert sched[2] == (12, 13)  # and everything behind it queues

    def test_unit_busy_blocks_issue(self):
        machine = CDC6600Machine()
        trace = make_trace([fadd(1, 0, 0), fadd(2, 0, 0)])
        sched = schedule_of(machine, trace, M11BR5)
        # First add holds the FP-add unit 0..6; the second issues at 6.
        assert sched == [(0, 6), (6, 12)]

    def test_memory_unit_is_interleaved(self):
        machine = CDC6600Machine()
        trace = make_trace([loads(1, 1), loads(2, 1), loads(3, 1)])
        # Banked memory: one access may start per cycle despite the
        # 11-cycle latency.
        assert schedule_of(machine, trace, M11BR5) == [
            (0, 11),
            (1, 12),
            (2, 13),
        ]

    def test_store_has_no_destination_and_never_waw_blocks(self):
        machine = CDC6600Machine()
        trace = make_trace([si(1), stores(1, 1), si(1)])
        sched = schedule_of(machine, trace, M11BR5)
        assert sched[1][0] == 1  # store issues in its slot
        assert sched[2] == (2, 3)  # rewrite of S1 not blocked by a store


class TestBranches:
    def test_branch_waits_for_source_register_at_issue(self):
        machine = CDC6600Machine()
        trace = make_trace([aadd(0, 0, 1), jan(True), si(1)])
        sched = schedule_of(machine, trace, M11BR5)
        # aadd completes at 2; the conditional branch (no prediction)
        # issues only then and resolves branch_latency later.
        assert sched[0] == (0, 2)
        assert sched[1] == (2, 7)
        assert sched[2] == (7, 8)

    def test_unconditional_branch_stalls_only_branch_latency(self):
        machine = CDC6600Machine()
        trace = make_trace([jmp(True), si(1)])
        assert schedule_of(machine, trace, M11BR5) == [(0, 5), (5, 6)]

    def test_branch_latency_config(self):
        machine = CDC6600Machine()
        trace = make_trace([jmp(True), si(1)])
        assert schedule_of(machine, trace, M11BR2) == [(0, 2), (2, 3)]

    def test_branch_unit_frees_next_cycle(self):
        machine = CDC6600Machine()
        trace = make_trace([jmp(True), jmp(True)])
        # The branch mechanism is not held for the full resolution: the
        # second branch issues as soon as the first resolves the stream.
        assert schedule_of(machine, trace, M11BR5) == [(0, 5), (5, 10)]


class TestPipelinedAblation:
    def test_pipelined_units_release_after_start(self):
        machine = CDC6600Machine(fu_holds_until_complete=False)
        trace = make_trace([fadd(1, 0, 0), fadd(2, 0, 0)])
        assert schedule_of(machine, trace, M11BR5) == [(0, 6), (1, 7)]

    def test_pipelined_never_slower(self):
        from repro.verify.fuzz import FuzzSpec, fuzz_trace

        holds = CDC6600Machine()
        pipelined = CDC6600Machine(fu_holds_until_complete=False)
        for seed in range(40):
            trace = fuzz_trace(seed, FuzzSpec(length=48))
            config = CONFIGS[seed % len(CONFIGS)]
            assert (
                pipelined.simulate(trace, config).cycles
                <= holds.simulate(trace, config).cycles
            ), seed

    def test_names_distinguish_variants(self):
        assert "pipelined" not in CDC6600Machine().name
        assert "pipelined" in CDC6600Machine(fu_holds_until_complete=False).name


class TestFastReferenceIdentity:
    HAND_TRACES = (
        make_trace([si(1)], name="one"),
        make_trace([loads(1, 1), fadd(2, 1, 1), aadd(2, 2, 1)], name="raw"),
        make_trace([si(1), fmul(2, 1, 1), si(2)], name="waw"),
        make_trace([aadd_r(0, 1, 2), jan(False), jan(True), si(3)], name="br"),
        make_trace([loads(1, 1), stores(1, 1), loads(1, 2)], name="mem"),
    )

    @pytest.mark.parametrize("holds", [True, False], ids=["holds", "pipelined"])
    def test_hand_traces_bit_identical(self, holds):
        machine = CDC6600Machine(fu_holds_until_complete=holds)
        for trace in self.HAND_TRACES:
            for config in CONFIGS:
                record = []
                fast = fastpath.python_backend.simulate_cdc6600_fast(
                    machine, trace, config, record
                )
                reference = machine.reference_simulate(trace, config)
                assert fast.cycles == reference.cycles, (trace.name, config.name)
                assert record == schedule_of(machine, trace, config), (
                    trace.name,
                    config.name,
                )

    def test_lone_store_matches_reference(self):
        machine = CDC6600Machine()
        trace = make_trace([stores(1, 1)], name="lone-store")
        fast = machine.simulate(trace, M5BR2)
        assert fast.cycles == machine.reference_simulate(trace, M5BR2).cycles

    def test_kernel_ordering_between_neighbours(self, loop5_trace):
        # Paper's Section 3.3 lattice on a real kernel: the 6600 scheme
        # sits between issue blocking and full renaming.
        from repro.core import TomasuloMachine, cray_like_machine

        cdc = CDC6600Machine().simulate(loop5_trace, M11BR5).cycles
        cray = cray_like_machine().simulate(loop5_trace, M11BR5).cycles
        tomasulo = TomasuloMachine().simulate(loop5_trace, M11BR5).cycles
        assert cdc <= cray
        assert tomasulo <= cdc
