"""CDC 6600-style single-issue machine -- a Section 3.3 baseline.

The paper's Section 3.3 surveys single-issue-unit *dependency resolution*
schemes between plain issue blocking and the RUU:

    "the instruction issue scheme used in the CDC 6600 handles RAW hazards
    but blocks instruction issue when a WAW hazard is encountered"

This model reproduces that middle point (Thornton's scoreboard).  An
instruction issues to a functional unit even if its operands are not yet
ready -- it waits *at the unit* -- but issue still blocks when

* the destination register has an outstanding write (WAW),
* the functional unit is busy (a unit holds its instruction from issue
  until completion, like the 6600's single-instruction units), or
* a branch is unresolved.

Operands are read when they become available (the 6600 broadcasts "go"
to waiting units), so a RAW hazard delays only the dependent operation's
start, not the issue of everything behind it.
"""

from __future__ import annotations

from typing import Dict

from ..isa import FunctionalUnit, Register
from ..obs.events import EventKind, SimEvent, hook_installed
from ..trace import Trace
from . import fastpath
from .base import Simulator, require_scalar_trace
from .config import MachineConfig
from .result import SimulationResult


class CDC6600Machine(Simulator):
    """Single issue unit; RAW resolved at the units; WAW blocks issue.

    Args:
        fu_holds_until_complete: if True (the 6600 behaviour), a unit is
            occupied from issue to completion; if False, units are
            pipelined once the operation starts (a hybrid used to isolate
            the WAW-blocking effect).
    """

    def __init__(self, *, fu_holds_until_complete: bool = True) -> None:
        self.fu_holds_until_complete = fu_holds_until_complete

    @property
    def name(self) -> str:
        suffix = "" if self.fu_holds_until_complete else ", pipelined units"
        return f"CDC6600-style{suffix}"

    def simulate(self, trace: Trace, config: MachineConfig) -> SimulationResult:
        # hook_installed is re-read per call so a hook attached after
        # construction always gets the event-emitting loop.
        if fastpath.enabled() and not hook_installed(self):
            return fastpath.python_backend.simulate_cdc6600_fast(self, trace, config)
        return self._simulate(trace, config, self.on_event)

    def _simulate(
        self, trace: Trace, config: MachineConfig, emit
    ) -> SimulationResult:
        """The reference recurrence plus optional event emission.

        Emits ISSUE at the issue cycle and COMPLETE at the completion
        cycle (branches: resolution at ``issue + branch_latency``), so
        the invariant checker can ride the event stream.
        """
        require_scalar_trace(trace, self.name)
        latencies = config.latencies
        branch_latency = config.branch_latency

        reg_ready: Dict[Register, int] = {}
        fu_free: Dict[FunctionalUnit, int] = {}
        next_issue = 0
        last_event = 0

        for entry in trace:
            instr = entry.instruction
            unit = instr.unit
            latency = instr.latency(latencies)

            # Issue conditions: in-order slot, unit free, no WAW.
            earliest = next_issue
            unit_free = fu_free.get(unit, 0)
            if unit_free > earliest:
                earliest = unit_free
            if instr.dest is not None:
                waw = reg_ready.get(instr.dest, 0)
                if waw > earliest:
                    earliest = waw
            if instr.is_branch:
                # The branch must read A0 before it can resolve; the 6600
                # has no branch prediction either.
                for src in instr.source_registers:
                    ready = reg_ready.get(src, 0)
                    if ready > earliest:
                        earliest = ready

            issue = earliest

            # Execution begins once the operands arrive at the unit.
            start = issue
            for src in instr.source_registers:
                ready = reg_ready.get(src, 0)
                if ready > start:
                    start = ready
            complete = start + latency

            if instr.is_branch:
                next_issue = issue + branch_latency
                complete = issue + branch_latency
                fu_free[unit] = issue + 1
            else:
                next_issue = issue + 1
                if unit is FunctionalUnit.MEMORY:
                    # The 6600's storage was organised in independent
                    # banks; keep the memory interleaved (as the paper
                    # fixes for all machines beyond SerialMemory) so the
                    # comparison isolates the issue scheme.
                    fu_free[unit] = start + 1
                else:
                    fu_free[unit] = (
                        complete if self.fu_holds_until_complete else start + 1
                    )
                if instr.dest is not None:
                    reg_ready[instr.dest] = complete

            if complete > last_event:
                last_event = complete
            if emit is not None:
                emit(SimEvent(EventKind.ISSUE, entry.seq, issue))
                emit(SimEvent(EventKind.COMPLETE, entry.seq, complete))

        return SimulationResult(
            trace_name=trace.name,
            simulator=self.name,
            config=config,
            instructions=len(trace),
            cycles=max(last_event, 1),
        )

    def reference_simulate(
        self, trace: Trace, config: MachineConfig
    ) -> SimulationResult:
        """The reference recurrence with no hook: the oracle twin.

        The differential tests and the cross-machine oracle use this as
        the baseline the compiled fast loop must match bit-for-bit.
        """
        return self._simulate(trace, config, None)
