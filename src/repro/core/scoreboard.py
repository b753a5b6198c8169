"""Single-issue, issue-blocking machines of Section 3.2.

One instruction may issue per cycle, in program order.  Issue blocks on:

* RAW hazards -- a source register with an outstanding write;
* WAW hazards -- the destination register with an outstanding write;
* structural hazards -- the functional unit cannot accept the operation
  (a non-pipelined unit is busy for its whole latency; a pipelined unit
  accepts one new operation per cycle);
* branches -- after a branch issues (which itself waits for A0), no
  instruction issues for ``branch_latency`` cycles.

Three of the paper's four basic organisations are instances of this model
(the fourth, the Simple machine, lives in :mod:`repro.core.simple`):

====================  ====================  =====================
organisation          functional units      memory
====================  ====================  =====================
``SerialMemory``      non-pipelined         one request at a time
``NonSegmented``      non-pipelined         interleaved
``CRAY-like``         pipelined             interleaved
====================  ====================  =====================
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from ..isa import FunctionalUnit, Register
from ..obs.events import EventCallback, EventKind, SimEvent
from ..trace import Trace
from .base import CompiledSimulator
from .config import MachineConfig
from .result import SimulationResult


class StallReason(enum.Enum):
    """What finally gated an instruction's issue cycle."""

    NONE = "no stall"
    RAW = "waiting for a source register"
    WAW = "waiting for the destination register"
    UNIT = "functional unit busy"
    BUS = "result bus conflict"
    BRANCH = "waiting for a branch to resolve"


class ScoreboardMachine(CompiledSimulator):
    """Single-issue in-order machine with configurable unit pipelining.

    Args:
        fu_pipelined: if True, non-memory functional units accept a new
            operation every cycle; otherwise a unit is busy for the whole
            latency of each operation.
        memory_interleaved: if True, the memory accepts a new request every
            cycle (an interleaved/pipelined memory); otherwise it services
            a single request at a time.
        model_result_bus: if True (default), the machine has a single
            result bus to the register file -- one register write per
            cycle, checked at issue time like the CRAY-1 does.  With this
            on, the CRAY-like machine is numerically identical to the
            multi-issue machines at one issue station.
        label: display name; defaults to the paper's name for the
            flag combination.
    """

    family = "scoreboard"

    def __init__(
        self,
        *,
        fu_pipelined: bool,
        memory_interleaved: bool,
        model_result_bus: bool = True,
        vector_chaining: bool = True,
        label: str = "",
    ) -> None:
        self.fu_pipelined = fu_pipelined
        self.memory_interleaved = memory_interleaved
        self.model_result_bus = model_result_bus
        #: Vector extension: with chaining (the CRAY-1 feature) a vector
        #: result can feed a dependent vector operation as elements are
        #: produced (ready at issue + latency); without it the consumer
        #: waits for the full vector (issue + latency + VL).
        self.vector_chaining = vector_chaining
        self._label = label or self._default_label()

    def _default_label(self) -> str:
        if self.fu_pipelined and self.memory_interleaved:
            return "CRAY-like"
        if self.memory_interleaved:
            return "NonSegmented"
        if not self.fu_pipelined:
            return "SerialMemory"
        return "Pipelined/SerialMemory"

    @property
    def name(self) -> str:
        return self._label

    # ------------------------------------------------------------------
    def _simulate(
        self,
        trace: Trace,
        config: MachineConfig,
        emit: Optional[EventCallback],
    ) -> SimulationResult:
        # The seed implementation this loop replaced survives, frozen,
        # as ``benchmarks/seed_scoreboard.py``:
        # ``benchmarks/bench_hooks.py`` gates the unobserved
        # (``emit=None``) overhead of this loop against it.
        latencies = config.latencies
        branch_latency = config.branch_latency

        reg_ready: Dict[Register, int] = {}
        reg_write_done: Dict[Register, int] = {}  # full completion (WAW)
        fu_free: Dict[FunctionalUnit, int] = {}
        bus_reserved: Set[int] = set()
        next_issue = 0
        prev_issue = -1
        after_branch = False
        last_event = 0
        # Hoisted so reason tracking costs local stores, not enum
        # attribute lookups; with no subscriber the per-instruction price
        # of the event plumbing is just the `emit is not None` tests
        # (bench_hooks.py gates that price in CI).
        tracking = emit is not None
        reason_none = StallReason.NONE
        reason_raw = StallReason.RAW
        reason_waw = StallReason.WAW
        reason_unit = StallReason.UNIT
        reason_bus = StallReason.BUS
        reason_branch = StallReason.BRANCH
        reason = reason_none

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
                    reason = reason_raw
            if instr.dest is not None:
                ready = reg_write_done.get(
                    instr.dest, reg_ready.get(instr.dest, 0)
                )
                if ready > earliest:
                    earliest = ready
                    reason = reason_waw
            unit_free = fu_free.get(unit, 0)
            if unit_free > earliest:
                earliest = unit_free
                reason = reason_unit
            if self.model_result_bus and uses_bus:
                while earliest + latency in bus_reserved:
                    earliest += 1
                    reason = reason_bus

            issue = earliest
            # A vector operation streams vl elements: its full result
            # exists at issue + latency + vl, its first at issue + latency.
            complete = issue + latency + (vl if is_vector else 0)
            if self.model_result_bus and uses_bus:
                bus_reserved.add(complete)

            if unit is FunctionalUnit.MEMORY:
                pipelined = self.memory_interleaved
            elif unit is FunctionalUnit.BRANCH:
                pipelined = True  # branch spacing is handled below
            else:
                pipelined = self.fu_pipelined or latency <= 1
            if is_vector:
                # The unit streams one element per cycle for vl cycles
                # (non-pipelined units additionally drain their latency).
                fu_free[unit] = issue + vl if pipelined else complete
            else:
                fu_free[unit] = issue + 1 if pipelined else complete

            if instr.dest is not None:
                if is_vector and self.vector_chaining:
                    reg_ready[instr.dest] = issue + latency  # chain point
                else:
                    reg_ready[instr.dest] = complete
                reg_write_done[instr.dest] = complete

            if instr.is_branch:
                # The stream resumes only after the branch executes.
                next_issue = issue + branch_latency
                complete = issue + branch_latency
                after_branch = True
            else:
                next_issue = issue + 1
                after_branch = False

            if complete > last_event:
                last_event = complete

            if tracking:
                stall_cycles = issue - prev_issue - 1
                if stall_cycles > 0:
                    emit(SimEvent(
                        EventKind.STALL, entry.seq, issue,
                        reason=reason.name, cycles=stall_cycles,
                    ))
                emit(SimEvent(EventKind.ISSUE, entry.seq, issue))
                emit(SimEvent(EventKind.COMPLETE, entry.seq, complete))
                prev_issue = issue
                # Seed the next instruction's binding constraint here (one
                # tracking test per instruction, not two): `after_branch`
                # already reflects the instruction just handled.
                reason = reason_branch if after_branch else reason_none

        return SimulationResult(
            trace_name=trace.name,
            simulator=self.name,
            config=config,
            instructions=len(trace),
            cycles=last_event,
        )


def serial_memory_machine() -> ScoreboardMachine:
    """Non-pipelined units, one-at-a-time memory (Section 3.2)."""
    return ScoreboardMachine(fu_pipelined=False, memory_interleaved=False)


def non_segmented_machine() -> ScoreboardMachine:
    """Non-pipelined units, interleaved memory (the CDC 6600 layout)."""
    return ScoreboardMachine(fu_pipelined=False, memory_interleaved=True)


def cray_like_machine() -> ScoreboardMachine:
    """Fully pipelined units, interleaved memory (the CRAY organisation)."""
    return ScoreboardMachine(fu_pipelined=True, memory_interleaved=True)
