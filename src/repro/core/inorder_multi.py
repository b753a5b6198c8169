"""Multiple issue units with sequential (in-order) issue -- Section 5.1.

The hardware fetches a block of N instructions into an instruction buffer
(one slot per issue unit).  The slots are examined in parallel, but issue
is strictly in program order: if any instruction cannot issue, no
succeeding instruction in the buffer may issue either.  The buffer is
refilled only after all of its instructions have issued -- except on a
taken branch, which flushes the remaining slots and refills from the
target once the branch resolves.

Functional units are CRAY-like (fully pipelined, interleaved memory), as
the paper fixes for all multiple-issue studies.  Each issuing instruction
must also reserve a result-bus slot for its writeback cycle
(:mod:`repro.core.buses`); stores and branches produce no result and skip
the reservation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..isa import FunctionalUnit, Register
from ..obs.events import EventCallback, EventKind, SimEvent
from ..trace import Trace, TraceEntry
from .base import CompiledSimulator, require_scalar_trace
from .buses import BusKind, ResultBuses
from .config import MachineConfig
from .result import SimulationResult


class InOrderMultiIssueMachine(CompiledSimulator):
    """N issue units, program-order issue, CRAY-like functional units.

    Args:
        issue_units: number of issue stations N (also the buffer length
            and, for N-Bus/X-Bar, the number of result buses).
        bus_kind: result-bus interconnect model.
    """

    family = "inorder"

    def __init__(self, issue_units: int, bus_kind: BusKind = BusKind.N_BUS) -> None:
        if issue_units < 1:
            raise ValueError("need at least one issue unit")
        self.issue_units = issue_units
        self.bus_kind = bus_kind

    @property
    def name(self) -> str:
        return f"in-order x{self.issue_units} ({self.bus_kind})"

    # ------------------------------------------------------------------
    def _simulate(
        self,
        trace: Trace,
        config: MachineConfig,
        emit: Optional[EventCallback],
    ) -> SimulationResult:
        require_scalar_trace(trace, self.name)
        latencies = config.latencies
        branch_latency = config.branch_latency

        reg_ready: Dict[Register, int] = {}
        fu_free: Dict[FunctionalUnit, int] = {}
        buses = ResultBuses(self.bus_kind, self.issue_units)

        entries = trace.entries
        n_entries = len(entries)
        pos = 0  # next trace entry to fetch
        cycle = 0  # current issue cycle under consideration
        last_event = 0

        while pos < n_entries:
            buffer = self._fetch_buffer(entries, pos)
            slot = 0
            flushed = False
            while slot < len(buffer):
                entry = buffer[slot]
                instr = entry.instruction
                latency = instr.latency(latencies)

                earliest = self._earliest_issue(
                    instr, cycle, reg_ready, fu_free
                )
                if instr.dest is not None:
                    earliest = buses.earliest_slot_for_result(
                        slot, earliest, latency
                    )

                if earliest > cycle:
                    # In-order: this slot blocks everything behind it.
                    # Jump straight to the cycle it becomes issueable.
                    cycle = earliest
                    continue

                # Issue at `cycle`.
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
                        cycle + branch_latency if instr.is_branch else complete,
                    ))
                slot += 1

                if instr.is_branch:
                    resolve = cycle + branch_latency
                    if resolve > last_event:
                        last_event = resolve
                    cycle = resolve
                    if entry.taken:
                        flushed = True
                        if emit is not None:
                            # The remaining fetch slots are discarded and
                            # fetch redirects to the branch target.
                            emit(SimEvent(
                                EventKind.FLUSH, entry.seq, resolve,
                                reason="TAKEN_BRANCH",
                                cycles=self.issue_units - slot,
                            ))
                        break

            issued = slot if flushed else len(buffer)
            pos += issued
            if not flushed and buffer:
                # All slots issued this buffer; the refill is overlapped, so
                # the next buffer is examinable the cycle after the last
                # issue.  `cycle` already points past the last issue only
                # for branches; bump it for straight-line code.
                last_instr = buffer[-1].instruction
                if not last_instr.is_branch:
                    cycle = cycle + 1

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
        """Next instruction buffer: up to N entries, cut after a taken branch.

        A taken branch redirects fetch, so trace entries after it belong to
        the new buffer; untaken branches leave the fall-through prefetch
        valid and stay in the same buffer.
        """
        buffer: List[TraceEntry] = []
        for entry in entries[pos : pos + self.issue_units]:
            buffer.append(entry)
            if entry.is_branch and entry.taken:
                break
        return buffer

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
