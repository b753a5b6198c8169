"""Tomasulo-style single-issue machine -- a Section 3.3 baseline.

The second dependency-resolution scheme the paper cites:

    "The instruction issuing scheme used in the IBM 360/91 floating point
    unit issues instructions in spite of RAW and WAW hazards."

Reservation stations in front of each functional unit accept the
instruction at issue; register renaming through station tags removes WAW
(and WAR) blocking entirely.  Issue stalls only when the target unit's
stations are all full or a branch is unresolved.  Results broadcast on a
common data bus (CDB); the bus carries a configurable number of results
per cycle (the 360/91 had one).

This machine brackets the RUU from above on register dataflow: it has no
in-order-commit constraint, so (unlike the RUU) completed instructions
free their stations as soon as their result broadcasts.  The price is
imprecise interrupts -- the paper's motivation for preferring the RUU.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa import FunctionalUnit, Register
from ..obs.events import EventKind, SimEvent
from ..trace import Trace
from .base import CompiledSimulator, require_scalar_trace
from .buses import SlotPerCycle
from .config import MachineConfig
from .result import SimulationResult

_UNKNOWN = -1
_MAX_CYCLES = 10_000_000


@dataclass
class _Station:
    """One reservation station entry."""

    seq: int
    unit: FunctionalUnit
    latency: int
    dest_tag: Optional[Tuple[Register, int]]
    pending: int
    operands_ready: int


class TomasuloMachine(CompiledSimulator):
    """Single issue unit with per-unit reservation stations and a CDB.

    Args:
        stations_per_unit: reservation stations in front of each unit.
        cdb_width: results broadcast per cycle on the common data bus
            (1 on the IBM 360/91).
    """

    family = "tomasulo"

    def __init__(self, stations_per_unit: int = 4, cdb_width: int = 1) -> None:
        if stations_per_unit < 1:
            raise ValueError("need at least one reservation station per unit")
        if cdb_width < 1:
            raise ValueError("the CDB must carry at least one result per cycle")
        self.stations_per_unit = stations_per_unit
        self.cdb_width = cdb_width

    @property
    def name(self) -> str:
        return (
            f"Tomasulo-style (RS={self.stations_per_unit}, "
            f"CDB={self.cdb_width})"
        )

    # ------------------------------------------------------------------
    def _simulate(
        self, trace: Trace, config: MachineConfig, emit
    ) -> SimulationResult:
        require_scalar_trace(trace, self.name)
        latencies = config.latencies
        branch_latency = config.branch_latency

        latest_instance: Dict[Register, int] = {}
        tag_avail: Dict[Tuple[Register, int], int] = {}
        waiting_on: Dict[Tuple[Register, int], List[_Station]] = {}

        # Station occupancy per unit: stations allocated at issue, freed
        # when the result has broadcast (stores: when the access finishes).
        busy_count: Dict[FunctionalUnit, int] = {}
        release_heap: Dict[FunctionalUnit, List[int]] = {}

        fu_next: Dict[FunctionalUnit, int] = {}
        ready_heap: List[Tuple[int, int, _Station]] = []
        cdb = SlotPerCycle(self.cdb_width)

        entries = trace.entries
        pos = 0
        issue_resume = 0
        cycle = 0
        in_flight = 0
        last_event = 0

        def operand_tag(reg: Register) -> Tuple[Register, int]:
            return (reg, latest_instance.get(reg, 0))

        def tag_ready(tag: Tuple[Register, int]) -> int:
            if tag[1] == 0 and tag not in tag_avail:
                return 0
            return tag_avail.get(tag, _UNKNOWN)

        def release_station(unit: FunctionalUnit, when: int) -> None:
            heapq.heappush(release_heap[unit], when)

        def station_available(unit: FunctionalUnit) -> bool:
            heap = release_heap.setdefault(unit, [])
            count = busy_count.get(unit, 0)
            while heap and heap[0] <= cycle:
                heapq.heappop(heap)
                count -= 1
            busy_count[unit] = count
            return count < self.stations_per_unit

        while pos < len(entries) or in_flight > 0:
            # ---- start ready operations on their (pipelined) units -------
            eligible: List[Tuple[int, int, _Station]] = []
            while ready_heap and ready_heap[0][0] <= cycle:
                eligible.append(heapq.heappop(ready_heap))
            eligible.sort(key=lambda item: item[1])  # oldest first
            for ready_cycle, seq, station in eligible:
                unit_free = fu_next.get(station.unit, 0)
                if unit_free > cycle:
                    heapq.heappush(
                        ready_heap, (max(ready_cycle, unit_free), seq, station)
                    )
                    continue
                fu_next[station.unit] = cycle + 1
                finish = cycle + station.latency
                if station.dest_tag is not None:
                    broadcast = cdb.earliest(finish)
                    cdb.take(broadcast)
                    tag_avail[station.dest_tag] = broadcast
                    for dependent in waiting_on.pop(station.dest_tag, ()):
                        dependent.pending -= 1
                        if broadcast > dependent.operands_ready:
                            dependent.operands_ready = broadcast
                        if dependent.pending == 0:
                            heapq.heappush(
                                ready_heap,
                                (
                                    dependent.operands_ready,
                                    dependent.seq,
                                    dependent,
                                ),
                            )
                    release = broadcast
                else:
                    release = finish  # stores need no CDB slot
                release_station(station.unit, release)
                in_flight -= 1
                if release > last_event:
                    last_event = release
                if emit is not None:
                    emit(SimEvent(EventKind.COMPLETE, station.seq, release))

            # ---- issue: one instruction per cycle ------------------------
            if pos < len(entries) and cycle >= issue_resume:
                instr = entries[pos].instruction
                if instr.is_branch:
                    a0_ready = 0
                    if instr.is_conditional_branch:
                        a0_ready = tag_ready(
                            operand_tag(instr.source_registers[0])
                        )
                    if a0_ready != _UNKNOWN and a0_ready <= cycle:
                        resolve = cycle + branch_latency
                        issue_resume = resolve
                        if resolve > last_event:
                            last_event = resolve
                        if emit is not None:
                            emit(SimEvent(EventKind.ISSUE, pos, cycle))
                        pos += 1
                    elif emit is not None:
                        emit(SimEvent(
                            EventKind.STALL, pos, cycle,
                            reason="BRANCH", cycles=1,
                        ))
                elif station_available(instr.unit):
                    latency = instr.latency(latencies)
                    dest_tag = None
                    src_tags = [operand_tag(r) for r in instr.source_registers]
                    if instr.dest is not None:
                        instance = latest_instance.get(instr.dest, 0) + 1
                        latest_instance[instr.dest] = instance
                        dest_tag = (instr.dest, instance)
                    station = _Station(
                        seq=pos,
                        unit=instr.unit,
                        latency=latency,
                        dest_tag=dest_tag,
                        pending=0,
                        operands_ready=cycle + 1,  # earliest start: next cycle
                    )
                    for tag in src_tags:
                        ready = tag_ready(tag)
                        if ready == _UNKNOWN:
                            station.pending += 1
                            waiting_on.setdefault(tag, []).append(station)
                        elif ready > station.operands_ready:
                            station.operands_ready = ready
                    busy_count[instr.unit] = busy_count.get(instr.unit, 0) + 1
                    in_flight += 1
                    if emit is not None:
                        emit(SimEvent(EventKind.ISSUE, pos, cycle))
                    pos += 1
                    if station.pending == 0:
                        heapq.heappush(
                            ready_heap,
                            (station.operands_ready, station.seq, station),
                        )
                elif emit is not None:
                    emit(SimEvent(
                        EventKind.STALL, pos, cycle,
                        reason="STATIONS_FULL", cycles=1,
                    ))
            elif emit is not None and pos < len(entries):
                emit(SimEvent(
                    EventKind.STALL, pos, cycle, reason="BRANCH", cycles=1,
                ))

            cycle += 1
            if cycle > _MAX_CYCLES:  # pragma: no cover - bug trap
                raise RuntimeError("Tomasulo simulation failed to progress")

        return SimulationResult(
            trace_name=trace.name,
            simulator=self.name,
            config=config,
            instructions=len(entries),
            cycles=max(last_event, 1),
        )
