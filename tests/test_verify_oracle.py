"""Tests for the cross-machine oracle and the shrinker.

The headline acceptance test: a deliberately broken machine (a mutated
latency table, the classic reproduction bug) must be caught by the
differential oracle, and the failing fuzzed trace must shrink to a
reproducer of at most 20 instructions.  The fastpath-dual tests plant
faults in the compiled fast path (cycles, one recorded issue cycle,
latencies, telemetry) and require the campaign runner, which makes one
observed reference replay per (seed, machine), to catch and shrink
them.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from repro.core import M11BR5, M5BR2, MachineConfig
from repro.core.base import CompiledSimulator, Simulator
from repro.core.cdc6600 import CDC6600Machine
from repro.core.fastpath import python_backend
from repro.core.inorder_multi import InOrderMultiIssueMachine
from repro.core.ooo_multi import OutOfOrderMultiIssueMachine
from repro.core.registry import build_simulator
from repro.core.ruu import RUUMachine
from repro.core.scoreboard import ScoreboardMachine
from repro.core.spec import SpecMachine
from repro.core.tomasulo import TomasuloMachine
from repro.obs.telemetry import SimTelemetry, strip_telemetry
from repro.trace import subset_trace
from repro.verify import (
    DEFAULT_EDGES,
    DEFAULT_ORACLE_MACHINES,
    OrderingEdge,
    VerifyOptions,
    fuzz_trace,
    observe,
    run_oracle,
    run_verification,
    shrink_trace,
)
from repro.verify.fuzz import FuzzSpec

from test_verify_invariants import MutatedLatencyMachine


class TestCleanOracle:
    def test_fuzzed_traces_pass(self):
        for seed in range(6):
            report = run_oracle(fuzz_trace(seed), M11BR5)
            assert report.ok, [str(v) for v in report.violations]

    def test_real_kernel_passes(self, loop12_trace):
        for config in (M11BR5, M5BR2):
            report = run_oracle(loop12_trace, config)
            assert report.ok, [str(v) for v in report.violations]

    def test_report_carries_cycles_and_limits(self):
        report = run_oracle(fuzz_trace(3), M11BR5)
        assert report.cycles["cray"] >= report.dataflow_makespan
        assert report.cycles["cray"] >= report.resource_makespan
        assert report.serial_dataflow_makespan >= report.dataflow_makespan
        assert report.cycles["cray"] == report.cycles["inorder:1"]

    def test_machine_subset_skips_dangling_edges(self):
        report = run_oracle(
            fuzz_trace(1), M11BR5, machines=("simple", "cray")
        )
        assert report.ok
        assert set(report.cycles) == {"simple", "cray"}


class DivergentFastPathMachine:
    """simulate() disagrees with reference_simulate() by one cycle --
    exactly the failure mode the fastpath-dual check exists to catch."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def name(self):
        return self._inner.name

    def simulate(self, trace, config):
        result = self._inner.simulate(trace, config)
        return dc_replace(result, cycles=result.cycles + 1)

    def reference_simulate(self, trace, config):
        return self._inner.simulate(trace, config)


class MutatedReferenceMachine:
    """A machine whose reference loop silently runs under a different
    latency table -- the mutated-latency bug landing in *one* of the two
    replay paths, which only the fastpath-dual check can see."""

    def __init__(self, inner, mutated: MachineConfig):
        self._inner = inner
        self._mutated = mutated

    @property
    def name(self):
        return self._inner.name

    def simulate(self, trace, config):
        return self._inner.simulate(trace, config)

    def reference_simulate(self, trace, config):
        return self._inner.reference_simulate(trace, self._mutated)


#: Every machine family whose simulate() dispatches to a compiled fast
#: loop (and therefore exposes a reference_simulate dual).
FAST_LOOP_SPECS = (
    "cray",
    "inorder:4",
    "ooo:4",
    "ruu:2:50",
    "tomasulo",
    "cdc6600",
)


class TestFastpathDualCheck:
    def test_divergent_fast_path_caught(self):
        broken = DivergentFastPathMachine(build_simulator("cray"))
        trace = fuzz_trace(0)
        report = run_oracle(trace, M11BR5, simulators={"cray": broken})
        checks = {v.check for v in report.violations}
        assert "fastpath-dual" in checks, [str(v) for v in report.violations]

    @pytest.mark.parametrize("spec", FAST_LOOP_SPECS)
    def test_off_by_one_divergence_caught_per_machine(self, spec):
        broken = DivergentFastPathMachine(build_simulator(spec))
        trace = fuzz_trace(1)
        report = run_oracle(
            trace, M11BR5, machines=(spec,), edges=(), simulators={spec: broken}
        )
        assert any(
            v.check == "fastpath-dual" and v.machine == spec
            for v in report.violations
        ), [str(v) for v in report.violations]

    @pytest.mark.parametrize("spec", FAST_LOOP_SPECS)
    def test_mutated_latency_divergence_caught_per_machine(self, spec):
        # Memory latency 11 -> 5 in the reference loop only; some fuzzed
        # trace must make the two paths disagree.
        broken = MutatedReferenceMachine(
            build_simulator(spec), MachineConfig(memory_latency=5)
        )
        for seed in range(20):
            trace = fuzz_trace(seed)
            report = run_oracle(
                trace,
                M11BR5,
                machines=(spec,),
                edges=(),
                simulators={spec: broken},
            )
            if any(
                v.check == "fastpath-dual" and v.machine == spec
                for v in report.violations
            ):
                return
        pytest.fail(f"mutated reference loop never caught for {spec}")

    def test_clean_machines_report_no_dual_violations(self):
        report = run_oracle(fuzz_trace(2), M11BR5)
        assert not any(
            v.check == "fastpath-dual" for v in report.violations
        )


class TestBrokenMachineCaught:
    def _broken_cray(self):
        # Memory latency mutated from 11 to 5 in one machine only: the
        # scoreboard now beats its exact dual (and the dataflow bound).
        return MutatedLatencyMachine(
            build_simulator("cray"), MachineConfig(memory_latency=5)
        )

    def _find_failing_trace(self, broken):
        for seed in range(50):
            trace = fuzz_trace(seed)
            report = run_oracle(trace, M11BR5, simulators={"cray": broken})
            if not report.ok:
                return trace, report
        pytest.fail("mutated latency table never caught in 50 seeds")

    def test_oracle_catches_mutated_latency_table(self):
        broken = self._broken_cray()
        trace, report = self._find_failing_trace(broken)
        checks = {violation.check for violation in report.violations}
        # The broken machine must trip the exact hardware dual and/or
        # run faster than physics (the dataflow bound) allows.
        assert checks & {"exact-equality", "dataflow-bound"}

    def test_shrunk_reproducer_is_small(self):
        broken = self._broken_cray()
        trace, report = self._find_failing_trace(broken)
        first = report.violations[0]
        signature = (first.check, first.machine)

        def still_fails(candidate):
            violations = run_oracle(
                candidate, M11BR5, simulators={"cray": broken}
            ).violations
            return any(
                (v.check, v.machine) == signature for v in violations
            )

        assert still_fails(trace)
        repro = shrink_trace(trace, still_fails)
        assert len(repro) <= 20, (
            f"shrunk reproducer still has {len(repro)} instructions"
        )
        assert still_fails(repro)

    def test_oracle_catches_slow_mutation_via_equality(self):
        # Slower is not faster-than-physics, so the bounds stay quiet;
        # only the exact-equality dual can catch an inflated latency.
        broken = MutatedLatencyMachine(
            build_simulator("cray"), MachineConfig(memory_latency=13)
        )
        trace, report = self._find_failing_trace(broken)
        assert any(
            violation.check in ("exact-equality", "partial-order")
            for violation in report.violations
        )


class TestEdges:
    def test_default_edges_reference_default_machines(self):
        for edge in DEFAULT_EDGES:
            assert edge.fast in DEFAULT_ORACLE_MACHINES
            assert edge.slow in DEFAULT_ORACLE_MACHINES

    def test_custom_edge_violation_reported(self):
        # An intentionally wrong claim: the serial machine never beats
        # the CRAY-like scoreboard, so asserting the reverse must fail
        # on some fuzzed trace.
        wrong = (OrderingEdge("simple", "cray", claim="backwards"),)
        seen = False
        for seed in range(10):
            report = run_oracle(
                fuzz_trace(seed),
                M11BR5,
                machines=("simple", "cray"),
                edges=wrong,
            )
            if not report.ok:
                assert report.violations[0].check == "partial-order"
                seen = True
                break
        assert seen


class TestShrinker:
    def test_shrinks_to_single_entry(self):
        trace = fuzz_trace(4, FuzzSpec(length=40))
        target = trace.entries[17].instruction.opcode

        def has_opcode(candidate):
            return any(
                entry.instruction.opcode is target
                for entry in candidate.entries
            )

        repro = shrink_trace(trace, has_opcode)
        count = sum(
            1 for e in trace.entries if e.instruction.opcode is target
        )
        assert count >= 1
        assert len(repro) == 1
        assert has_opcode(repro)

    def test_respects_probe_budget(self):
        trace = fuzz_trace(5, FuzzSpec(length=64))
        probes = []

        def predicate(candidate):
            probes.append(len(candidate))
            return len(candidate) >= 3

        repro = shrink_trace(trace, predicate, max_probes=10)
        assert len(probes) <= 10
        assert len(repro) >= 3

    def test_subset_preserves_metadata(self):
        trace = fuzz_trace(
            6, FuzzSpec(memory_fraction=0.5, branch_fraction=0.3)
        )
        keep = [i for i in range(len(trace)) if i % 3 == 0]
        small = subset_trace(trace, keep)
        for new_entry, old_index in zip(small.entries, keep):
            old_entry = trace.entries[old_index]
            assert new_entry.instruction == old_entry.instruction
            assert new_entry.address == old_entry.address
            assert new_entry.taken == old_entry.taken


# ----------------------------------------------------------------------
# One observed replay per (seed, machine), and the schedule-level dual
# ----------------------------------------------------------------------

#: Every machine class with a ``reference_simulate`` loop.
REFERENCE_CLASSES = (
    ScoreboardMachine,
    CDC6600Machine,
    TomasuloMachine,
    InOrderMultiIssueMachine,
    OutOfOrderMultiIssueMachine,
    RUUMachine,
    SpecMachine,
)

#: A short campaign: every config of the rotation but one, no shrink.
_SHORT = dict(seeds=3, fuzz=FuzzSpec(length=24), shrink=False)


def _plant_on_cray(monkeypatch, fault):
    """Route the CRAY-like scoreboard's sweep replays through *fault*,
    ``fault(loop, machine, trace, config, record) -> result``; the other
    scoreboard machines keep the real loop."""
    loop = python_backend.FAMILY_LOOPS["scoreboard"]

    def planted(machine, trace, config, record=None):
        if machine.name != "CRAY-like":
            return loop(machine, trace, config, record)
        return fault(loop, machine, trace, config, record)

    monkeypatch.setitem(python_backend.FAMILY_LOOPS, "scoreboard", planted)


def _one_cycle_late(loop, machine, trace, config, record):
    result = loop(machine, trace, config, record)
    return dc_replace(result, cycles=result.cycles + 1)


def _fast_memory_latency(loop, machine, trace, config, record):
    # Memory latency 11 -> 5 in the fast loop only.
    if config.memory_latency == 11:
        config = dc_replace(config, memory_latency=5)
    return loop(machine, trace, config, record)


class TestObservedReplayCampaign:
    def test_one_observed_replay_per_machine_and_no_reference_calls(
        self, monkeypatch
    ):
        observed = []
        references = []

        def counting(simulate_observed):
            def counting_observed(self, trace, config, on_event):
                observed.append(on_event is not None)
                return simulate_observed(self, trace, config, on_event)
            return counting_observed

        for cls in (Simulator, CompiledSimulator):
            monkeypatch.setattr(
                cls, "simulate_observed", counting(cls.simulate_observed)
            )
        for cls in REFERENCE_CLASSES:
            monkeypatch.setattr(
                cls,
                "reference_simulate",
                lambda self, trace, config: references.append(self),
            )
        report = run_verification(VerifyOptions(**_SHORT))
        assert report.ok, [str(f) for f in report.failures]
        machines = len(DEFAULT_ORACLE_MACHINES)
        assert report.checks_run == report.seeds_run * (machines + 1)
        # Every machine but the eventless simple one replays with events.
        assert len(observed) == report.seeds_run * machines
        assert sum(observed) == report.seeds_run * (machines - 1)
        assert references == []

    def test_run_oracle_observes_for_itself_without_a_map(self):
        trace = fuzz_trace(7)
        replays = {
            spec: observe(trace, spec, M11BR5)
            for spec in DEFAULT_ORACLE_MACHINES
        }
        given = run_oracle(trace, M11BR5, observed=replays)
        own = run_oracle(trace, M11BR5)
        assert given.ok and own.ok
        assert given.cycles == own.cycles
        assert given.cycles == {
            spec: replay.result.cycles for spec, replay in replays.items()
        }


class TestScheduleDual:
    def test_schedule_only_sweep_fault_caught_by_runner(self, monkeypatch):
        # The RUU size rule reports correct cycles but shifts one
        # recorded issue cycle: only a schedule-level dual sees it.
        ruu_sweep = python_backend.ruu_sweep
        shifted = []

        def planted(compiled, group):
            results = ruu_sweep(compiled, group)
            for item in group:
                if item.record:
                    seq = len(item.record) // 2
                    issue, resolution = item.record[seq]
                    item.record[seq] = (issue + 1, resolution)
                    shifted.append(seq)
            return results

        monkeypatch.setattr(python_backend, "ruu_sweep", planted)
        report = run_verification(VerifyOptions(**_SHORT))
        assert shifted
        assert not report.ok
        failure = report.failures[0]
        assert failure.check == "fastpath-dual"
        assert failure.machine.startswith("ruu:")
        assert f"seq {shifted[0]}" in failure.message

    def test_schedule_mismatch_names_the_first_differing_seq(
        self, monkeypatch
    ):
        def late_third_issue(loop, machine, trace, config, record):
            result = loop(machine, trace, config, record)
            issue, resolution = record[2]
            record[2] = (issue + 1, resolution)
            return result

        _plant_on_cray(monkeypatch, late_third_issue)
        report = run_oracle(fuzz_trace(3), M11BR5, machines=("cray",))
        (violation,) = report.violations
        assert violation.check == "fastpath-dual"
        assert violation.machine == "cray"
        assert "seq 2 " in violation.message


class TestRunnerCatchesPlantedFastPathFaults:
    def test_off_by_one_fast_path_caught_and_shrunk(self, monkeypatch):
        _plant_on_cray(monkeypatch, _one_cycle_late)
        report = run_verification(
            VerifyOptions(seeds=3, machines=DEFAULT_ORACLE_MACHINES)
        )
        assert not report.ok
        failure = report.failures[0]
        assert (failure.check, failure.machine) == ("fastpath-dual", "cray")
        # Any one instruction is a witness: the shrinker must find one.
        assert len(failure.trace) <= 2, len(failure.trace)

    def test_mutated_latency_fast_path_caught(self, monkeypatch):
        _plant_on_cray(monkeypatch, _fast_memory_latency)
        report = run_verification(VerifyOptions(**_SHORT))
        assert not report.ok
        failure = report.failures[0]
        assert (failure.check, failure.machine) == ("fastpath-dual", "cray")

    def test_telemetry_divergence_caught_only_with_telemetry(
        self, monkeypatch
    ):
        loop = python_backend.FAMILY_LOOPS["tomasulo"]

        def extra_flush(machine, trace, config, record=None):
            result = loop(machine, trace, config, record)
            telemetry = SimTelemetry.from_detail(result.detail)
            wrong = dc_replace(telemetry, flushes=telemetry.flushes + 1)
            detail = {**strip_telemetry(result.detail), **wrong.to_detail()}
            return dc_replace(result, detail=detail)

        monkeypatch.setitem(
            python_backend.FAMILY_LOOPS, "tomasulo", extra_flush
        )
        assert run_verification(VerifyOptions(**_SHORT)).ok
        report = run_verification(
            VerifyOptions(**_SHORT, check_telemetry=True)
        )
        assert not report.ok
        failure = report.failures[0]
        assert (failure.check, failure.machine) == ("telemetry", "tomasulo")
        assert "flushes" in failure.message
