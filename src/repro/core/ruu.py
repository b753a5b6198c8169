"""Multiple issue units with RUU dependency resolution -- Section 5.3.

Models the Register Update Unit scheme of Sohi & Vajapeyam: reservation
stations are consolidated into a single FIFO (the RUU).  Per cycle, with N
issue units and an RUU of R entries:

* **issue**   -- up to N instructions enter the RUU in program order;
  issue blocks when the RUU is full or a branch is encountered (there is
  no branch prediction: the stream resumes only once the branch resolves,
  i.e. its A0 instance is available plus the branch execution time --
  prediction is studied with the ``spec`` family, :mod:`repro.core.spec`);
* **dispatch**-- any RUU entries whose operands are available may proceed
  to the (fully pipelined) functional units, oldest first, limited by the
  RUU->FU path width;
* **return**  -- results come back to the RUU ``latency`` cycles after
  dispatch, limited by the FU->RUU path width; with bypass (the paper's
  assumption) a returning result is usable by waiting entries in its
  return cycle;
* **commit**  -- results retire to the register file from the RUU head, in
  program order, limited by the RUU->regfile path width; the slot is then
  free for reuse.

Register *instances* (per-register counters) provide operand tags, so WAW
and WAR hazards never block issue -- exactly the paper's point.

Bus widths: the N-Bus organisation gives each of the three paths width N;
the 1-Bus organisation gives each path width 1.

Memory ordering: like the paper's dataflow treatment, the model tracks
register dependences only; loads and stores are not serialised against
each other (``ordered_memory=True`` restores program order among memory
operations as an ablation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa import A0, FunctionalUnit, Register
from ..obs.events import EventKind, SimEvent
from ..trace import Trace
from .base import CompiledSimulator, require_scalar_trace
from .buses import BusKind, SlotPerCycle
from .config import MachineConfig
from .result import SimulationResult

_UNKNOWN = -1

#: Guard against livelock bugs during development.
_MAX_CYCLES = 10_000_000

Tag = Tuple[Register, int]


@dataclass
class _Entry:
    """One RUU entry (a consolidated reservation station)."""

    seq: int
    unit: FunctionalUnit
    latency: int
    dest_tag: Optional[Tag]
    pending: int  # sources whose availability is not yet known
    operands_ready: int  # max known source-availability cycle
    uses_memory_order: bool
    dispatched: bool = False
    result_cycle: int = _UNKNOWN  # cycle the result is back in the RUU
    committed: bool = False


class RUUMachine(CompiledSimulator):
    """N issue units with a Register Update Unit of R entries.

    Args:
        issue_units: issue width N (also dispatch/return/commit width for
            the N-Bus organisation).
        ruu_size: number of RUU entries R.
        bus_kind: ``N_BUS`` or ``ONE_BUS`` (the paper studies these two
            for the RUU machine).
        bypass: results usable by waiting entries in their return cycle
            (paper's assumption); if False, one cycle later.
        ordered_memory: if True, loads/stores dispatch in program order
            among themselves (ablation; the paper tracks register
            dependences only).
        fu_copies: copies of every functional unit (including the memory
            port); the paper's base machine has exactly one of each.
    """

    family = "ruu"

    def __init__(
        self,
        issue_units: int,
        ruu_size: int,
        bus_kind: BusKind = BusKind.N_BUS,
        *,
        bypass: bool = True,
        ordered_memory: bool = False,
        fu_copies: int = 1,
    ) -> None:
        if issue_units < 1:
            raise ValueError("need at least one issue unit")
        if ruu_size < 1:
            raise ValueError("the RUU needs at least one entry")
        if bus_kind is BusKind.X_BAR:
            raise ValueError(
                "the RUU machine models N-Bus and 1-Bus organisations"
            )
        if fu_copies < 1:
            raise ValueError("need at least one copy of each functional unit")
        self.issue_units = issue_units
        self.ruu_size = ruu_size
        self.bus_kind = bus_kind
        self.bypass = bypass
        self.ordered_memory = ordered_memory
        #: Copies of every functional unit (the paper's base machine has
        #: one of each; >1 relaxes the resource limit's bottleneck).
        self.fu_copies = fu_copies

    @property
    def path_width(self) -> int:
        """Width of each of the three buses (RUU->FU, FU->RUU, RUU->regfile)."""
        return 1 if self.bus_kind is BusKind.ONE_BUS else self.issue_units

    @property
    def name(self) -> str:
        extras = []
        if not self.bypass:
            extras.append("no-bypass")
        if self.ordered_memory:
            extras.append("ordered-mem")
        if self.fu_copies != 1:
            extras.append(f"{self.fu_copies}xFU")
        suffix = f", {'+'.join(extras)}" if extras else ""
        return (
            f"RUU x{self.issue_units} R={self.ruu_size} "
            f"({self.bus_kind}{suffix})"
        )

    # ------------------------------------------------------------------
    def _simulate(
        self, trace: Trace, config: MachineConfig, emit
    ) -> SimulationResult:
        require_scalar_trace(trace, self.name)
        latencies = config.latencies
        branch_latency = config.branch_latency
        width = self.path_width

        # Register instance bookkeeping.
        latest_instance: Dict[Register, int] = {}
        tag_avail: Dict[Tag, int] = {}  # tag -> cycle value is usable
        waiting_on: Dict[Tag, List[_Entry]] = {}

        # The RUU: program-ordered ring of live entries.
        ruu: List[_Entry] = []
        head = 0  # index of the oldest uncommitted entry
        live = 0

        # Dispatch-ready priority queue: (ready_cycle, seq, entry).
        ready_heap: List[Tuple[int, int, _Entry]] = []

        return_path = SlotPerCycle(width)
        # Per-unit acceptance: each of the fu_copies pipelined copies of a
        # unit accepts one operation per cycle.
        fu_cycle: Dict[FunctionalUnit, int] = {}
        fu_used: Dict[FunctionalUnit, int] = {}

        occupancy_sum = 0  # RUU entries live, integrated over cycles
        full_stall_cycles = 0  # cycles issue was blocked by a full RUU
        branch_stall_cycles = 0  # cycles issue waited on branch resolution

        entries = trace.entries
        if self.ordered_memory:
            memory_seqs = [
                seq
                for seq, t_entry in enumerate(entries)
                if t_entry.instruction.unit is FunctionalUnit.MEMORY
            ]
            memory_index = 0  # next memory seq allowed to dispatch
        n_entries = len(entries)
        pos = 0  # next trace entry to issue
        issue_resume = 0  # no issue before this cycle (branch blockage)
        cycle = 0
        last_commit = 0

        def operand_tag(reg: Register) -> Tag:
            return (reg, latest_instance.get(reg, 0))

        def tag_ready(tag: Tag) -> int:
            if tag[1] == 0 and tag not in tag_avail:
                return 0  # initial register contents
            return tag_avail.get(tag, _UNKNOWN)

        while pos < n_entries or live > 0:
            if cycle > _MAX_CYCLES:  # pragma: no cover - bug trap
                raise RuntimeError("RUU simulation failed to make progress")

            # ---- commit: retire in order from the head -------------------
            commits = 0
            while live > 0 and commits < width:
                entry = ruu[head]
                if entry.result_cycle == _UNKNOWN or entry.result_cycle > cycle:
                    break
                entry.committed = True
                head += 1
                live -= 1
                commits += 1
                if cycle > last_commit:
                    last_commit = cycle
                if emit is not None:
                    emit(SimEvent(EventKind.COMPLETE, entry.seq, cycle))
            if head > 4096 and head * 2 > len(ruu):
                del ruu[:head]
                head = 0

            # ---- dispatch: oldest ready entries, up to the path width ----
            eligible: List[Tuple[int, int, _Entry]] = []
            while ready_heap and ready_heap[0][0] <= cycle:
                eligible.append(heapq.heappop(ready_heap))
            eligible.sort(key=lambda item: item[1])  # oldest first
            dispatches = 0
            for ready_cycle, seq, entry in eligible:
                blocked = dispatches >= width
                if not blocked:
                    if fu_cycle.get(entry.unit) == cycle:
                        blocked = fu_used[entry.unit] >= self.fu_copies
                if not blocked and self.ordered_memory and entry.uses_memory_order:
                    blocked = seq != memory_seqs[memory_index]
                if blocked:
                    heapq.heappush(ready_heap, (cycle + 1, seq, entry))
                    continue
                # Dispatch now.
                entry.dispatched = True
                dispatches += 1
                if fu_cycle.get(entry.unit) == cycle:
                    fu_used[entry.unit] += 1
                else:
                    fu_cycle[entry.unit] = cycle
                    fu_used[entry.unit] = 1
                if self.ordered_memory and entry.uses_memory_order:
                    memory_index += 1
                back = return_path.earliest(cycle + entry.latency)
                return_path.take(back)
                entry.result_cycle = back
                if entry.dest_tag is not None:
                    # Stores (and PASS) produce no register result; for them
                    # result_cycle just marks completion for in-order commit.
                    avail = back if self.bypass else back + 1
                    tag_avail[entry.dest_tag] = avail
                    for dependent in waiting_on.pop(entry.dest_tag, ()):
                        dependent.pending -= 1
                        if avail > dependent.operands_ready:
                            dependent.operands_ready = avail
                        if dependent.pending == 0:
                            heapq.heappush(
                                ready_heap,
                                (dependent.operands_ready, dependent.seq, dependent),
                            )

            # ---- issue: up to N instructions, in program order ----------
            issued = 0
            while (
                pos < n_entries
                and issued < self.issue_units
                and cycle >= issue_resume
                and live < self.ruu_size
            ):
                t_entry = entries[pos]
                instr = t_entry.instruction

                if instr.is_branch:
                    a0_tag = operand_tag(A0)
                    a0_ready = tag_ready(a0_tag) if instr.is_conditional_branch else 0
                    if a0_ready == _UNKNOWN or a0_ready > cycle:
                        break  # branch waits at the issue stage
                    issue_resume = cycle + branch_latency
                    if issue_resume > last_commit:
                        # Branches never commit; their resolution still
                        # bounds the machine's finish time (a trace ending
                        # in a branch ends when the branch resolves).
                        last_commit = issue_resume
                    if emit is not None:
                        emit(SimEvent(EventKind.ISSUE, t_entry.seq, cycle))
                    pos += 1
                    issued += 1
                    break  # nothing issues behind an unresolved branch

                latency = instr.latency(latencies)
                src_tags = [operand_tag(r) for r in instr.source_registers]
                dest_tag: Optional[Tag] = None
                if instr.dest is not None:
                    instance = latest_instance.get(instr.dest, 0) + 1
                    latest_instance[instr.dest] = instance
                    dest_tag = (instr.dest, instance)

                entry = _Entry(
                    seq=pos,
                    unit=instr.unit,
                    latency=latency,
                    dest_tag=dest_tag,
                    pending=0,
                    operands_ready=cycle,
                    uses_memory_order=instr.unit is FunctionalUnit.MEMORY,
                )
                for tag in src_tags:
                    ready = tag_ready(tag)
                    if ready == _UNKNOWN:
                        entry.pending += 1
                        waiting_on.setdefault(tag, []).append(entry)
                    elif ready > entry.operands_ready:
                        entry.operands_ready = ready
                ruu.append(entry)
                live += 1
                if emit is not None:
                    emit(SimEvent(EventKind.ISSUE, entry.seq, cycle))
                pos += 1
                issued += 1
                if entry.pending == 0:
                    heapq.heappush(
                        ready_heap, (entry.operands_ready, entry.seq, entry)
                    )

            occupancy_sum += live
            if pos < n_entries and issued == 0:
                if cycle < issue_resume:
                    branch_stall_cycles += 1
                    if emit is not None:
                        emit(SimEvent(
                            EventKind.STALL, pos, cycle,
                            reason="BRANCH", cycles=1,
                        ))
                elif live >= self.ruu_size:
                    full_stall_cycles += 1
                    if emit is not None:
                        emit(SimEvent(
                            EventKind.STALL, pos, cycle,
                            reason="RUU_FULL", cycles=1,
                        ))
            cycle += 1

        cycles = max(last_commit, 1)
        detail = {
            "ruu_occupancy_mean": occupancy_sum / max(cycle, 1),
            "ruu_full_stall_cycles": float(full_stall_cycles),
            "branch_stall_cycles": float(branch_stall_cycles),
        }
        return SimulationResult(
            trace_name=trace.name,
            simulator=self.name,
            config=config,
            instructions=n_entries,
            cycles=cycles,
            detail=detail,
        )
