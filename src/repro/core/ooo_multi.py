"""Multiple issue units with out-of-order issue -- Section 5.2.

Same instruction buffer as the in-order machine (N slots, refilled only
when every slot has issued, flushed by a taken branch), but a blocked
instruction no longer stops its successors: any buffer slot may issue once

* it has no RAW or WAW hazard against *unissued earlier* slots or against
  in-flight instructions,
* every branch earlier in the buffer has resolved (no speculation -- the
  machine has no branch prediction),
* its functional unit and a result-bus slot are available.

The paper does not mention WAR hazards ("write after read hazards are not
important in a single processor situation") because its earlier machines
read operands in program order at issue.  Once issue is out of order a
later write can overtake an earlier unissued read, so a correct
implementation must block it; we enforce WAR by default and expose the
paper's implicit behaviour as an ablation flag (``enforce_war=False``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..isa import FunctionalUnit, Register
from ..obs.events import EventKind, SimEvent
from ..trace import Trace, TraceEntry
from .base import CompiledSimulator, require_scalar_trace
from .buses import BusKind, ResultBuses
from .config import MachineConfig
from .result import SimulationResult

#: Cap on how long a single buffer may take to drain; generous enough for
#: any real schedule, small enough to catch livelock bugs in development.
_MAX_BUFFER_CYCLES = 100_000


class OutOfOrderMultiIssueMachine(CompiledSimulator):
    """N issue units, out-of-order issue within the instruction buffer.

    Args:
        issue_units: number of issue stations N.
        bus_kind: result-bus interconnect model.
        enforce_war: block WAR hazards between buffer slots (correct
            hardware); disable only for the ablation discussed in the
            module docstring.
    """

    family = "ooo"

    def __init__(
        self,
        issue_units: int,
        bus_kind: BusKind = BusKind.N_BUS,
        *,
        enforce_war: bool = True,
    ) -> None:
        if issue_units < 1:
            raise ValueError("need at least one issue unit")
        self.issue_units = issue_units
        self.bus_kind = bus_kind
        self.enforce_war = enforce_war

    @property
    def name(self) -> str:
        war = "" if self.enforce_war else ", no-WAR"
        return f"out-of-order x{self.issue_units} ({self.bus_kind}{war})"

    # ------------------------------------------------------------------
    def _simulate(
        self, trace: Trace, config: MachineConfig, emit
    ) -> SimulationResult:
        require_scalar_trace(trace, self.name)
        latencies = config.latencies
        branch_latency = config.branch_latency

        reg_ready: Dict[Register, int] = {}
        fu_free: Dict[FunctionalUnit, int] = {}
        buses = ResultBuses(self.bus_kind, self.issue_units)

        entries = trace.entries
        n_entries = len(entries)
        pos = 0
        cycle = 0
        last_event = 0

        while pos < n_entries:
            buffer = self._fetch_buffer(entries, pos)
            issued: List[bool] = [False] * len(buffer)
            # Resolution cycle of each issued branch slot (None = unissued).
            branch_resolve: List[Optional[int]] = [None] * len(buffer)
            remaining = len(buffer)
            barrier = 0  # latest branch resolution; gates the next buffer
            guard = 0

            while remaining:
                guard += 1
                if guard > _MAX_BUFFER_CYCLES:  # pragma: no cover - bug trap
                    raise RuntimeError(
                        f"buffer failed to drain at trace pos {pos}"
                    )
                progressed = False
                for slot, entry in enumerate(buffer):
                    if issued[slot]:
                        continue
                    if not self._control_ready(buffer, branch_resolve, slot, cycle):
                        continue
                    instr = entry.instruction
                    if self._register_conflict(buffer, issued, slot, instr):
                        continue
                    latency = instr.latency(latencies)
                    if self._earliest_issue(instr, cycle, reg_ready, fu_free) > cycle:
                        continue
                    if instr.dest is not None and not buses.can_reserve(
                        slot, cycle + latency
                    ):
                        continue

                    # Issue slot at `cycle`.
                    issued[slot] = True
                    remaining -= 1
                    progressed = True
                    complete = cycle + latency
                    fu_free[instr.unit] = cycle + 1
                    if instr.dest is not None:
                        reg_ready[instr.dest] = complete
                        buses.reserve(slot, complete)
                    if not instr.is_branch and complete > last_event:
                        last_event = complete
                    if emit is not None:
                        emit(SimEvent(EventKind.ISSUE, entry.seq, cycle))
                        emit(SimEvent(
                            EventKind.COMPLETE, entry.seq,
                            cycle + branch_latency if instr.is_branch
                            else complete,
                        ))
                    if instr.is_branch:
                        resolve = cycle + branch_latency
                        branch_resolve[slot] = resolve
                        if resolve > last_event:
                            last_event = resolve
                        if resolve > barrier:
                            barrier = resolve
                if remaining:
                    cycle += 1

            if emit is not None and buffer:
                tail = buffer[-1]
                if tail.is_branch and tail.taken:
                    # Fetch redirected at the taken branch: the rest of
                    # the fetch group never entered the buffer.
                    emit(SimEvent(
                        EventKind.FLUSH, tail.seq, barrier,
                        reason="TAKEN_BRANCH",
                        cycles=self.issue_units - len(buffer),
                    ))
            pos += len(buffer)
            # The next buffer is available the cycle after the last issue,
            # but never before every branch in this buffer has resolved
            # (instructions after a branch are control-dependent on it,
            # taken or not -- the machine does not speculate).
            cycle = max(cycle + 1, barrier)

        cycles = max(last_event, 1)
        return SimulationResult(
            trace_name=trace.name,
            simulator=self.name,
            config=config,
            instructions=n_entries,
            cycles=cycles,
        )

    # ------------------------------------------------------------------
    def _fetch_buffer(self, entries, pos: int) -> List[TraceEntry]:
        """Up to N entries, cut after the first taken branch (fetch redirect)."""
        buffer: List[TraceEntry] = []
        for entry in entries[pos : pos + self.issue_units]:
            buffer.append(entry)
            if entry.is_branch and entry.taken:
                break
        return buffer

    @staticmethod
    def _control_ready(buffer, branch_resolve, slot, cycle) -> bool:
        """No unresolved branch in an earlier slot (no speculation)."""
        for earlier in range(slot):
            if buffer[earlier].instruction.is_branch:
                resolve = branch_resolve[earlier]
                if resolve is None or resolve > cycle:
                    return False
        return True

    def _register_conflict(self, buffer, issued, slot, instr) -> bool:
        """RAW/WAW (and optionally WAR) against unissued earlier slots."""
        sources = instr.source_registers
        dest = instr.dest
        for earlier in range(slot):
            if issued[earlier]:
                continue
            other = buffer[earlier].instruction
            other_dest = other.dest
            if other_dest is not None:
                if other_dest in sources:  # RAW
                    return True
                if dest is not None and other_dest == dest:  # WAW
                    return True
            if (
                self.enforce_war
                and dest is not None
                and dest in other.source_registers
            ):  # WAR
                return True
        return False

    @staticmethod
    def _earliest_issue(instr, cycle, reg_ready, fu_free) -> int:
        earliest = cycle
        for src in instr.source_registers:
            ready = reg_ready.get(src, 0)
            if ready > earliest:
                earliest = ready
        if instr.dest is not None:
            ready = reg_ready.get(instr.dest, 0)
            if ready > earliest:
                earliest = ready
        unit_free = fu_free.get(instr.unit, 0)
        if unit_free > earliest:
            earliest = unit_free
        return earliest
