"""Tests for simulator events (repro.obs.events).

Two promises to pin down:

* **Zero-cost when unobserved** -- with no callback, every machine
  must produce cycle counts bit-identical to its reference loop
  (``reference_simulate``); the runtime side of that promise is
  enforced by ``benchmarks/bench_hooks.py`` in CI, against the
  scoreboard's frozen seed loop (``benchmarks/seed_scoreboard.py``).
* **Faithful when enabled** -- the typed event stream carries the whole
  schedule: issues, stalls and flushes with their reasons.
"""

import pytest

from repro.core import config_by_name, fastpath
from repro.core.registry import build_simulator
from repro.core.scoreboard import (
    StallReason,
    cray_like_machine,
    serial_memory_machine,
)
from repro.obs.events import EventCollector, EventKind, SimEvent, tee

CONFIGS = ("M11BR5", "M5BR2")

#: One spec per machine family whose reference loop emits events.
HOOKED_SPECS = (
    "cray",
    "serialmemory",
    "tomasulo",
    "inorder:4",
    "ooo:4",
    "ruu:2:50",
)


class TestEventPrimitives:
    def test_events_are_frozen_and_typed(self):
        event = SimEvent(EventKind.STALL, 7, 12, reason="RAW", cycles=3)
        with pytest.raises(AttributeError):
            event.cycle = 0

    def test_collector_counts_and_filters(self):
        collector = EventCollector()
        collector(SimEvent(EventKind.ISSUE, 0, 1))
        collector(SimEvent(EventKind.STALL, 1, 4, reason="RAW", cycles=2))
        collector(SimEvent(EventKind.STALL, 2, 9, reason="UNIT", cycles=1))
        assert collector.counts() == {EventKind.ISSUE: 1, EventKind.STALL: 2}
        assert len(collector.of_kind(EventKind.STALL)) == 2
        assert collector.stall_cycles_by_reason() == {"RAW": 2, "UNIT": 1}

    def test_tee_fans_out(self):
        first, second = EventCollector(), EventCollector()
        fanout = tee(first, second)
        fanout(SimEvent(EventKind.ISSUE, 0, 1))
        assert len(first.events) == len(second.events) == 1


class TestDisabledHooksBitIdentity:
    """Unobserved simulate() must equal the reference loop."""

    @pytest.mark.parametrize("config_name", CONFIGS)
    @pytest.mark.parametrize(
        "factory", [cray_like_machine, serial_memory_machine]
    )
    def test_scoreboard_matches_reference(
        self, small_traces, factory, config_name
    ):
        machine = factory()
        config = config_by_name(config_name)
        for trace in small_traces.values():
            hooked = machine.simulate(trace, config)
            reference = machine.reference_simulate(trace, config)
            assert hooked.cycles == reference.cycles
            assert hooked.instructions == reference.instructions


class TestHooksDoNotChangeResults:
    """Attaching a collector must never change the timing model."""

    @pytest.mark.parametrize("spec", HOOKED_SPECS)
    def test_cycles_unchanged_with_collector(self, small_traces, spec):
        config = config_by_name("M11BR5")
        trace = small_traces[5]
        baseline = build_simulator(spec).simulate(trace, config)
        machine = build_simulator(spec)
        collector = EventCollector()
        observed = machine.simulate_observed(trace, config, collector)
        assert observed.cycles == baseline.cycles
        assert collector.events, f"{spec} emitted no events"

    @pytest.mark.parametrize("spec", HOOKED_SPECS)
    def test_hook_is_restored_after_observed_run(self, small_traces, spec):
        """The callback is an argument, never machine state: an observed
        run leaves the machine as it was, and its next plain replay is
        the fast path, which feeds the old callback nothing."""
        machine = build_simulator(spec)
        before = dict(vars(machine))
        collector = EventCollector()
        trace, config = small_traces[5], config_by_name("M11BR5")
        machine.simulate_observed(trace, config, collector)
        assert vars(machine) == before
        seen = len(collector.events)
        fastpath.reset_stats()
        machine.simulate(trace, config)
        assert fastpath.stats()["fast_runs"] == 1
        assert len(collector.events) == seen


class TestEventStreamSemantics:
    def test_every_instruction_issues_and_completes(self, small_traces):
        machine = cray_like_machine()
        collector = EventCollector()
        trace = small_traces[5]
        machine.simulate_observed(trace, config_by_name("M11BR5"), collector)
        issues = collector.of_kind(EventKind.ISSUE)
        completes = collector.of_kind(EventKind.COMPLETE)
        assert len(issues) == len(trace) == len(completes)
        assert [e.seq for e in issues] == [e.seq for e in trace.entries]
        for issue, complete in zip(issues, completes):
            assert complete.cycle >= issue.cycle

    def test_stalls_carry_reason_and_cycles(self, small_traces):
        machine = serial_memory_machine()
        collector = EventCollector()
        machine.simulate_observed(
            small_traces[5], config_by_name("M5BR2"), collector
        )
        stalls = collector.of_kind(EventKind.STALL)
        assert stalls
        names = {reason.name for reason in StallReason}
        for stall in stalls:
            assert stall.reason in names
            assert stall.cycles > 0

    def test_spec_emits_flush_on_mispredict(self, small_traces):
        from repro.core.spec import SpecMachine

        machine = SpecMachine(2, 50, predictor="always")
        collector = EventCollector()
        machine.simulate_observed(
            small_traces[5], config_by_name("M11BR5"), collector
        )
        flushes = collector.of_kind(EventKind.FLUSH)
        # Loop 5's backward branch falls through on the final iteration,
        # so always-taken must mispredict at least once.
        assert flushes
        assert all(f.reason == "MISPREDICT" for f in flushes)
