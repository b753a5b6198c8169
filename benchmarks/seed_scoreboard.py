"""The scoreboard's seed issue loop, frozen: the baseline of the hook gate.

``ScoreboardMachine`` started life as this loop, with no event plumbing.
Hooks were added later inside the same recurrence
(``ScoreboardMachine._simulate``), and ``benchmarks/bench_hooks.py``
gates what they cost when no subscriber is attached: the hooked loop,
run with ``emit=None``, must stay within 2% of this copy on the
table-1 workload.  The copy lives here, not in ``src/``, because it is
a measuring stick and nothing else runs it.

Edit it only to follow a timing-model change in ``src/``: such a
change makes ``bench_hooks.py`` fail its bit-identity check against
this loop, and the fix is to port the same change here, line for line,
with no hook code.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.config import MachineConfig
from repro.core.result import SimulationResult
from repro.core.scoreboard import ScoreboardMachine
from repro.isa import FunctionalUnit, Register
from repro.trace import Trace


def seed_simulate(
    machine: ScoreboardMachine, trace: Trace, config: MachineConfig
) -> SimulationResult:
    """Replay *trace* on *machine* with the seed loop (no hook plumbing)."""
    latencies = config.latencies
    branch_latency = config.branch_latency

    reg_ready: Dict[Register, int] = {}
    reg_write_done: Dict[Register, int] = {}
    fu_free: Dict[FunctionalUnit, int] = {}
    bus_reserved: Set[int] = set()
    next_issue = 0
    last_event = 0

    for entry in trace:
        instr = entry.instruction
        unit = instr.unit
        latency = instr.latency(latencies)
        is_vector = instr.is_vector
        vl = entry.vector_length if is_vector else 0
        uses_bus = instr.dest is not None and not is_vector and (
            instr.dest.is_address or instr.dest.is_scalar
        )

        earliest = next_issue
        for src in instr.source_registers:
            ready = reg_ready.get(src, 0)
            if ready > earliest:
                earliest = ready
        if instr.dest is not None:
            ready = reg_write_done.get(
                instr.dest, reg_ready.get(instr.dest, 0)
            )
            if ready > earliest:
                earliest = ready
        unit_free = fu_free.get(unit, 0)
        if unit_free > earliest:
            earliest = unit_free
        if machine.model_result_bus and uses_bus:
            while earliest + latency in bus_reserved:
                earliest += 1

        issue = earliest
        complete = issue + latency + (vl if is_vector else 0)
        if machine.model_result_bus and uses_bus:
            bus_reserved.add(complete)

        if unit is FunctionalUnit.MEMORY:
            pipelined = machine.memory_interleaved
        elif unit is FunctionalUnit.BRANCH:
            pipelined = True
        else:
            pipelined = machine.fu_pipelined or latency <= 1
        if is_vector:
            fu_free[unit] = issue + vl if pipelined else complete
        else:
            fu_free[unit] = issue + 1 if pipelined else complete

        if instr.dest is not None:
            if is_vector and machine.vector_chaining:
                reg_ready[instr.dest] = issue + latency
            else:
                reg_ready[instr.dest] = complete
            reg_write_done[instr.dest] = complete

        if instr.is_branch:
            next_issue = issue + branch_latency
            complete = issue + branch_latency
        else:
            next_issue = issue + 1

        if complete > last_event:
            last_event = complete

    return SimulationResult(
        trace_name=trace.name,
        simulator=machine.name,
        config=config,
        instructions=len(trace),
        cycles=last_event,
    )
