"""Tests for the per-cycle invariant checker (:mod:`repro.verify.invariants`)."""

from __future__ import annotations

import pytest

from repro.core import M11BR5, M5BR2, MachineConfig
from repro.core.fastpath.ir import UNITS, compile_trace
from repro.core.registry import build_simulator
from repro.kernels import SMALL_SIZES
from repro.kernels.vectorized import VECTORIZED_LOOPS
from repro.obs.events import EventKind, SimEvent
from repro.trace.sources import trace_source
from repro.verify import check_invariants, fuzz_trace, profile_for_spec
from repro.verify.invariants import REGISTER_NAMES
from repro.verify.oracle import DEFAULT_ORACLE_MACHINES

from helpers import fadd, make_trace


class MutatedLatencyMachine:
    """A real machine silently replaying under a different latency table.

    Models the classic reproduction bug: a latency constant edited in
    one machine but not in the shared configuration.
    """

    def __init__(self, inner, mutated: MachineConfig) -> None:
        self.inner = inner
        self.mutated = mutated

    def simulate(self, trace, config):
        return self.inner.simulate(trace, self.mutated)

    def simulate_observed(self, trace, config, on_event):
        return self.inner.simulate_observed(trace, self.mutated, on_event)


class CompletionShiftMachine:
    """Tampers with the event stream: every COMPLETE reported *shift*
    cycles late (a cycle early by default)."""

    def __init__(self, inner, shift: int = -1) -> None:
        self.inner = inner
        self.shift = shift

    def simulate(self, trace, config):
        return self.inner.simulate(trace, config)

    def simulate_observed(self, trace, config, on_event):
        def shifted(event: SimEvent) -> None:
            if event.kind is EventKind.COMPLETE:
                event = SimEvent(
                    kind=event.kind,
                    seq=event.seq,
                    cycle=event.cycle + self.shift,
                    reason=event.reason,
                    cycles=event.cycles,
                )
            on_event(event)

        return self.inner.simulate_observed(trace, config, shifted)


class TestCleanMachinesPass:
    @pytest.mark.parametrize("spec", DEFAULT_ORACLE_MACHINES)
    def test_no_violations_on_fuzzed_traces(self, spec):
        for seed in range(4):
            trace = fuzz_trace(seed)
            assert check_invariants(trace, spec, M11BR5) == []
            assert check_invariants(trace, spec, M5BR2) == []

    def test_no_violations_on_a_real_kernel(self, loop5_trace):
        for spec in ("cray", "tomasulo", "ruu:2:20", "inorder:2"):
            assert check_invariants(loop5_trace, spec, M11BR5) == []


class TestProfiles:
    def test_eventless_machines(self):
        for spec in ("simple", "cache:256", "banked:8"):
            assert not profile_for_spec(spec).emits_events

    def test_cdc6600_emits_events(self):
        profile = profile_for_spec("cdc6600")
        assert profile.emits_events
        assert not profile.blocking  # RAW waits at the units
        assert profile.branch_completes
        assert profile.issue_width == 1

    def test_blocking_vs_buffered(self):
        assert profile_for_spec("cray").blocking
        assert profile_for_spec("inorder:4").blocking
        assert not profile_for_spec("tomasulo").blocking
        assert not profile_for_spec("ruu:2:10").blocking
        assert not profile_for_spec("cdc6600").blocking

    def test_parameters_flow_through(self):
        profile = profile_for_spec("ruu:4:50")
        assert profile.issue_width == 4
        assert profile.window_size == 50

    def test_unknown_spec_raises(self):
        from repro.core.registry import UnknownSpecError

        with pytest.raises(UnknownSpecError):
            profile_for_spec("warp-drive")


class TestBrokenMachinesAreCaught:
    def test_mutated_latency_table_caught(self):
        # Memory latency silently dropped from 11 to 5: loads complete
        # six cycles early, violating the exact completion discipline.
        broken = MutatedLatencyMachine(
            build_simulator("cray"), MachineConfig(memory_latency=5)
        )
        trace = fuzz_trace(0)  # default mix: ~20% memory references
        violations = check_invariants(
            trace, "cray", M11BR5, simulator=broken
        )
        assert violations, "mutated latency table went undetected"
        checks = {violation.check for violation in violations}
        assert "completion-latency-exact" in checks

    def test_mutated_branch_latency_caught(self):
        broken = MutatedLatencyMachine(
            build_simulator("inorder:2"), MachineConfig(branch_latency=2)
        )
        trace = fuzz_trace(
            1, spec=None
        )
        violations = check_invariants(
            trace, "inorder:2", M11BR5, simulator=broken
        )
        assert any(
            violation.check == "completion-latency-exact"
            for violation in violations
        )

    def test_event_tampering_caught(self):
        broken = CompletionShiftMachine(build_simulator("cray"))
        trace = fuzz_trace(2)
        violations = check_invariants(trace, "cray", M11BR5, simulator=broken)
        assert any(
            violation.check == "completion-latency-exact"
            for violation in violations
        )

    def test_violation_rendering_names_the_site(self):
        broken = MutatedLatencyMachine(
            build_simulator("cray"), MachineConfig(memory_latency=5)
        )
        trace = fuzz_trace(0)
        violation = check_invariants(
            trace, "cray", M11BR5, simulator=broken
        )[0]
        text = str(violation)
        assert "cray" in text
        assert "M11BR5" in text
        assert violation.trace_name in text

    def test_operand_violation_names_the_register(self):
        # FADD S4 <- S3 + S1 waits for FADD S3 (FP add, latency 6);
        # with every COMPLETE reported two cycles late, the consumer
        # issues before its producer's reported completion.
        trace = make_trace([fadd(3, 1, 2), fadd(4, 3, 1)])
        broken = CompletionShiftMachine(build_simulator("cray"), shift=2)
        violations = check_invariants(trace, "cray", M11BR5, simulator=broken)
        operands = [
            violation for violation in violations
            if violation.check == "operands-complete-at-issue"
        ]
        assert [violation.message for violation in operands] == [
            "FADD issued at cycle 6 but S3 (produced by seq 0) completes at 8"
        ]
        assert operands[0].seq == 1


def _fact_sources():
    """Scalar and vector kernels, fuzz, branchy and pointer traces."""
    for loop in range(1, 15):
        yield f"kernel:{loop}:n={SMALL_SIZES[loop]}"
    for loop in VECTORIZED_LOOPS:
        yield f"kernel:{loop}:n=64:vector=on"
    for family in ("fuzz", "branchy", "pointer"):
        for seed in range(3):
            yield f"{family}:seed={seed}"


@pytest.mark.parametrize("source", list(_fact_sources()))
def test_compiled_ops_carry_the_instruction_facts(source):
    """The checks read unit, registers and flags from the compiled
    trace; each must equal what the seq's Instruction says, and each
    register id must map back to the Instruction's register name."""
    trace = trace_source(source)
    ops = compile_trace(trace).ops
    assert len(ops) == len(trace)
    for seq, entry in enumerate(trace.entries):
        instr = entry.instruction
        unit, dest, srcs, is_branch, _taken, is_vector, vl, _bus, is_cond = (
            ops[seq]
        )
        assert UNITS[unit] is instr.unit, (source, seq)
        assert (REGISTER_NAMES[dest] if dest >= 0 else None) == (
            instr.dest.name if instr.dest is not None else None
        ), (source, seq)
        assert [REGISTER_NAMES[src] for src in srcs] == [
            register.name for register in instr.source_registers
        ], (source, seq)
        assert is_branch == instr.is_branch, (source, seq)
        assert is_cond == instr.is_conditional_branch, (source, seq)
        assert is_vector == instr.is_vector, (source, seq)
        assert vl == ((entry.vector_length or 0) if is_vector else 0)
