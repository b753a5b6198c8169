"""The ``batch`` backend: structure-of-arrays sweep evaluation.

The paper's experiments are sweep-shaped: the same trace replayed
across many machine configurations (the four memory/branch variants of
a table, the oracle's machine set, an issue-width sweep).  The
per-spec loops pay the full replay cost per configuration even though
:func:`~repro.core.fastpath.ir.compile_trace` already shares the
decode.  This backend evaluates one :class:`CompiledTrace` through a
whole sweep in a single pass: per-spec machine state lives in parallel
integer arrays (one slot per sweep member), and everything that does
not depend on the configuration -- operand/flag unpacking, the
in-order window and out-of-order buffer decomposition, the per-buffer
hazard analysis -- is computed once and shared across the sweep.

Grouping: sweep items are bucketed by *structure key* -- the attributes
that shape the shared decomposition (machine family; issue width and
WAR policy for the windowed machines).  Flags that only parameterise
the per-spec recurrence (latency tables, branch latency, bus wiring,
result-bus modelling, chaining) stay per-spec inside a group, so e.g.
``cray``/``serialmemory``/``nonsegmented`` batch together and a
four-config table row is always one group.  RUU members share the
trace's rename plan and run the one RUU loop per distinct replay: a
replay whose RUU never filled serves every smaller RUU its peak still
fits (counted as ``reused_runs``).  The Tomasulo and speculative
machines keep their per-spec loops (per-cycle wakeup state and
predictor replay do not share across configs profitably); sweep items
for them are served by the ``python`` backend loops inside the same
sweep call -- counted as ``fallback_runs`` -- sharing the single
compiled trace.

For the out-of-order machine the shared analysis is the big win: the
reference (and the per-spec fast loop) re-derives control and data
hazards between buffer slots on every scan cycle -- an O(slot) walk per
slot per cycle.  Here each buffer is decomposed once into per-slot
dependency bitmasks (``dep_mask``: RAW/WAW/and optionally WAR against
earlier slots; ``branches_before``: earlier branch slots), so each scan
tests two integer ANDs instead of walking the earlier slots, and every
sweep member reuses the same masks.

The state arrays are deliberately plain Python ``int`` lists, not NumPy
vectors: the recurrences are data-dependent (issue decisions feed the
very next comparison), so vectorising across the sweep would have to
speculate and repair -- and at sweep widths of 4-20 the per-op ufunc
dispatch overhead dominates any arithmetic saved.  Bit-identity with
``reference_simulate`` is the contract here exactly as for the
``python`` backend; the differential sweep in
``tests/test_fastpath_batch.py`` and the oracle's ``fastpath-dual``
check enforce it.
"""

from __future__ import annotations

import weakref
from heapq import heappop, heappush
from typing import Dict, List, Tuple

from ...obs.telemetry import SimTelemetry
from ...obs.telemetry import collecting as telemetry_collecting
from ...trace import Trace
from ..buses import BusKind
from ..result import SimulationResult
from .backends import (
    Backend,
    count_run,
    family_of,
    get_backend,
    register_backend,
)
from .ir import (
    N_REGISTERS,
    UNITS,
    _UNKNOWN,
    _unit_tables,
    compile_trace,
    window_stats,
)
from .python_backend import _UNIT_NAMES, _closed_busy, ruu_replay

__all__ = ["BatchBackend"]

#: Cap on buffer-drain scan passes, mirroring the per-spec loop's guard.
_MAX_BUFFER_CYCLES = 100_000

#: Families the batch kernels cover; the rest fall back to the
#: ``python`` backend's per-spec loops (still inside the one sweep).
_BATCHED_FAMILIES = frozenset(
    {"scoreboard", "cdc6600", "inorder", "ooo", "ruu"}
)


def _scalar_only(machine):
    from ..base import scalar_only_error

    raise scalar_only_error(machine.name)


def _result(compiled, machine, config, cycles, detail=None) -> SimulationResult:
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=compiled.n,
        cycles=cycles,
        detail=detail if detail is not None else {},
    )


# ----------------------------------------------------------------------
# Scoreboard family: single issue, issue-blocking (Section 3.2)
# ----------------------------------------------------------------------

def _sweep_scoreboard(compiled, group) -> List[SimulationResult]:
    """All scoreboard variants over one trace: ops outer, specs inner.

    The per-spec body is the ``python`` backend's scoreboard recurrence
    verbatim (same max chains, same bus probe, same tie-breaks); only
    the operand unpacking is hoisted out of the sweep.
    """
    K = len(group)
    p_lat: List[List[int]] = []
    p_pipe: List[List[bool]] = []
    p_brlat: List[int] = []
    p_bus: List[bool] = []
    p_chain: List[bool] = []
    for item in group:
        machine, config = item.simulator, item.config
        latencies, pipelined = _unit_tables(
            config, machine.fu_pipelined, machine.memory_interleaved
        )
        p_lat.append(latencies)
        p_pipe.append(pipelined)
        p_brlat.append(config.branch_latency)
        p_bus.append(machine.model_result_bus)
        p_chain.append(machine.vector_chaining)

    n_units = len(UNITS)
    reg_ready = [[0] * N_REGISTERS for _ in range(K)]
    write_done = [[0] * N_REGISTERS for _ in range(K)]
    fu_free = [[0] * n_units for _ in range(K)]
    bus_reserved: List[set] = [set() for _ in range(K)]
    bus_heap: List[List[int]] = [[] for _ in range(K)]
    next_issue = [0] * K
    last_event = [0] * K
    records = [item.record for item in group]

    telemetry = telemetry_collecting()

    # Two copies of the recurrence, as in the ``python`` backend's
    # scoreboard loop: the plain copy is the replay verbatim, the
    # telemetry copy tags each issue-probe improvement with an integer
    # reason code and attributes whole issue gaps in closed form
    # (branch shadows pre-credited at the branch, refunded when a later
    # relabelled gap absorbs them).
    if not telemetry:
        for unit, dest, srcs, is_branch, _taken, is_vector, vl, uses_bus, \
                _c in compiled.ops:
            for k in range(K):
                latency = p_lat[k][unit]
                regs = reg_ready[k]

                earliest = next_issue[k]
                for src in srcs:
                    ready = regs[src]
                    if ready > earliest:
                        earliest = ready
                if dest >= 0:
                    ready = write_done[k][dest]
                    if ready > earliest:
                        earliest = ready
                ready = fu_free[k][unit]
                if ready > earliest:
                    earliest = ready
                if p_bus[k] and uses_bus:
                    reserved = bus_reserved[k]
                    heap = bus_heap[k]
                    front = next_issue[k]
                    while heap and heap[0] <= front:
                        reserved.discard(heappop(heap))
                    while earliest + latency in reserved:
                        earliest += 1

                issue = earliest

                complete = issue + latency + vl
                if p_bus[k] and uses_bus:
                    bus_reserved[k].add(complete)
                    heappush(bus_heap[k], complete)

                if is_vector:
                    fu_free[k][unit] = (
                        issue + vl if p_pipe[k][unit] else complete
                    )
                else:
                    fu_free[k][unit] = (
                        issue + 1 if p_pipe[k][unit] else complete
                    )

                if dest >= 0:
                    if is_vector and p_chain[k]:
                        regs[dest] = issue + latency
                    else:
                        regs[dest] = complete
                    write_done[k][dest] = complete

                if is_branch:
                    next_issue[k] = issue + p_brlat[k]
                    complete = next_issue[k]
                else:
                    next_issue[k] = issue + 1

                if complete > last_event[k]:
                    last_event[k] = complete
                if records[k] is not None:
                    records[k].append((issue, complete))
    else:
        # reason codes: 0 NONE, 1 RAW, 2 WAW, 3 UNIT, 4 BUS, 5 BRANCH
        t_acc = [[0] * 6 for _ in range(K)]
        t_prev = [-1] * K
        reason = 0
        for unit, dest, srcs, is_branch, _taken, is_vector, vl, uses_bus, \
                _c in compiled.ops:
            for k in range(K):
                latency = p_lat[k][unit]
                regs = reg_ready[k]

                front = next_issue[k]
                earliest = front
                for src in srcs:
                    ready = regs[src]
                    if ready > earliest:
                        earliest = ready
                        reason = 1
                if dest >= 0:
                    ready = write_done[k][dest]
                    if ready > earliest:
                        earliest = ready
                        reason = 2
                ready = fu_free[k][unit]
                if ready > earliest:
                    earliest = ready
                    reason = 3
                if p_bus[k] and uses_bus:
                    reserved = bus_reserved[k]
                    heap = bus_heap[k]
                    while heap and heap[0] <= front:
                        reserved.discard(heappop(heap))
                    while earliest + latency in reserved:
                        earliest += 1
                        reason = 4

                issue = earliest

                # A positive gap implies a strict improvement set
                # `reason` this iteration, so no per-op reseeding.
                if issue > front:
                    acc = t_acc[k]
                    gap = issue - t_prev[k] - 1
                    acc[reason] += gap
                    shadow = gap - issue + front
                    if shadow:
                        acc[5] -= shadow
                t_prev[k] = issue

                complete = issue + latency + vl
                if p_bus[k] and uses_bus:
                    bus_reserved[k].add(complete)
                    heappush(bus_heap[k], complete)

                if is_vector:
                    fu_free[k][unit] = (
                        issue + vl if p_pipe[k][unit] else complete
                    )
                else:
                    fu_free[k][unit] = (
                        issue + 1 if p_pipe[k][unit] else complete
                    )

                if dest >= 0:
                    if is_vector and p_chain[k]:
                        regs[dest] = issue + latency
                    else:
                        regs[dest] = complete
                    write_done[k][dest] = complete

                if is_branch:
                    next_issue[k] = issue + p_brlat[k]
                    complete = next_issue[k]
                    t_acc[k][5] += p_brlat[k] - 1
                else:
                    next_issue[k] = issue + 1

                if complete > last_event[k]:
                    last_event[k] = complete
                if records[k] is not None:
                    records[k].append((issue, complete))
        if compiled.n and compiled.ops[-1][3]:
            # The final branch's shadow has no successor to pay it.
            for k in range(K):
                t_acc[k][5] -= p_brlat[k] - 1

    details: List[Dict[str, float]] = [{}] * K
    if telemetry:
        details = [
            SimTelemetry(
                instructions=compiled.n,
                cycles=last_event[k],
                stall_cycles={
                    "RAW": t_acc[k][1],
                    "WAW": t_acc[k][2],
                    "UNIT": t_acc[k][3],
                    "BUS": t_acc[k][4],
                    "BRANCH": t_acc[k][5],
                },
                fu_busy_cycles=_closed_busy(compiled, p_lat[k], p_brlat[k]),
                issue_width={1: compiled.n},
            ).to_detail()
            for k in range(K)
        ]

    return [
        _result(compiled, item.simulator, item.config, last_event[k],
                details[k])
        for k, item in enumerate(group)
    ]


# ----------------------------------------------------------------------
# CDC 6600-style scoreboard: RAW waits at the units (Section 3.3)
# ----------------------------------------------------------------------

def _sweep_cdc6600(compiled, group) -> List[SimulationResult]:
    K = len(group)
    p_lat: List[List[int]] = []
    p_brlat: List[int] = []
    p_holds: List[bool] = []
    for item in group:
        table = item.config.latencies
        p_lat.append([table.latency(unit) for unit in UNITS])
        p_brlat.append(item.config.branch_latency)
        p_holds.append(item.simulator.fu_holds_until_complete)

    from .ir import _MEMORY

    n_units = len(UNITS)
    reg_ready = [[0] * N_REGISTERS for _ in range(K)]
    fu_free = [[0] * n_units for _ in range(K)]
    next_issue = [0] * K
    last_event = [0] * K
    records = [item.record for item in group]

    telemetry = telemetry_collecting()

    # Two copies of the recurrence (see the scoreboard sweep).  Busy
    # spans are mostly closed-form: a non-branch op occupies its unit
    # for ``latency`` cycles plus however long RAW delivery delays
    # execution start (``start - issue``), and a branch for the branch
    # latency exactly -- so the telemetry copy only accumulates the
    # start-delay excess and adds the closed form at the end.
    if not telemetry:
        for unit, dest, srcs, is_branch, _t, _v, _vl, _bus, _c in (
            compiled.ops
        ):
            for k in range(K):
                latency = p_lat[k][unit]
                regs = reg_ready[k]

                earliest = next_issue[k]
                ready = fu_free[k][unit]
                if ready > earliest:
                    earliest = ready
                if dest >= 0:
                    waw = regs[dest]
                    if waw > earliest:
                        earliest = waw
                if is_branch:
                    for src in srcs:
                        ready = regs[src]
                        if ready > earliest:
                            earliest = ready

                issue = earliest

                start = issue
                for src in srcs:
                    ready = regs[src]
                    if ready > start:
                        start = ready
                complete = start + latency

                if is_branch:
                    next_issue[k] = issue + p_brlat[k]
                    complete = next_issue[k]
                    fu_free[k][unit] = issue + 1
                else:
                    next_issue[k] = issue + 1
                    if unit == _MEMORY:
                        fu_free[k][unit] = start + 1
                    else:
                        fu_free[k][unit] = (
                            complete if p_holds[k] else start + 1
                        )
                    if dest >= 0:
                        regs[dest] = complete

                if complete > last_event[k]:
                    last_event[k] = complete
                if records[k] is not None:
                    records[k].append((issue, complete))
    else:
        t_extra = [[0] * n_units for _ in range(K)]
        for unit, dest, srcs, is_branch, _t, _v, _vl, _bus, _c in (
            compiled.ops
        ):
            for k in range(K):
                latency = p_lat[k][unit]
                regs = reg_ready[k]

                earliest = next_issue[k]
                ready = fu_free[k][unit]
                if ready > earliest:
                    earliest = ready
                if dest >= 0:
                    waw = regs[dest]
                    if waw > earliest:
                        earliest = waw
                if is_branch:
                    for src in srcs:
                        ready = regs[src]
                        if ready > earliest:
                            earliest = ready

                issue = earliest

                start = issue
                for src in srcs:
                    ready = regs[src]
                    if ready > start:
                        start = ready
                complete = start + latency
                if start > issue:
                    # RAW delivery held the unit past its closed-form
                    # span.  (Branches never take this path: their
                    # issue already waited on every source.)
                    t_extra[k][unit] += start - issue

                if is_branch:
                    next_issue[k] = issue + p_brlat[k]
                    complete = next_issue[k]
                    fu_free[k][unit] = issue + 1
                else:
                    next_issue[k] = issue + 1
                    if unit == _MEMORY:
                        fu_free[k][unit] = start + 1
                    else:
                        fu_free[k][unit] = (
                            complete if p_holds[k] else start + 1
                        )
                    if dest >= 0:
                        regs[dest] = complete

                if complete > last_event[k]:
                    last_event[k] = complete
                if records[k] is not None:
                    records[k].append((issue, complete))

    details: List[Dict[str, float]] = [{}] * K
    if telemetry:
        details = []
        for k in range(K):
            busy = _closed_busy(compiled, p_lat[k], p_brlat[k])
            for u in range(n_units):
                if t_extra[k][u]:
                    name = _UNIT_NAMES[u]
                    busy[name] = busy.get(name, 0) + t_extra[k][u]
            details.append(
                SimTelemetry(
                    instructions=compiled.n,
                    cycles=max(last_event[k], 1),
                    stall_cycles={},
                    fu_busy_cycles=busy,
                    issue_width={1: compiled.n},
                ).to_detail()
            )

    return [
        _result(compiled, item.simulator, item.config, max(last_event[k], 1),
                details[k])
        for k, item in enumerate(group)
    ]


# ----------------------------------------------------------------------
# In-order multiple issue (Section 5.1): shared window decomposition
# ----------------------------------------------------------------------

def _sweep_inorder(compiled, units, group) -> List[SimulationResult]:
    """One window walk, every spec: the window boundaries (up to
    *units* slots, cut at the first taken branch) depend only on the
    compiled taken flags, so the decomposition and operand unpacking
    are shared; the per-slot recurrence runs per spec."""
    K = len(group)
    p_lat: List[List[int]] = []
    p_brlat: List[int] = []
    p_nbus: List[int] = []
    p_xbar: List[bool] = []
    for item in group:
        latencies, _ = _unit_tables(item.config, True, True)
        p_lat.append(latencies)
        p_brlat.append(item.config.branch_latency)
        kind = item.simulator.bus_kind
        p_nbus.append(1 if kind is BusKind.ONE_BUS else units)
        p_xbar.append(kind is BusKind.X_BAR)

    n_units = len(UNITS)
    reg_ready = [[0] * N_REGISTERS for _ in range(K)]
    fu_free = [[0] * n_units for _ in range(K)]
    buses: List[List[set]] = [
        [set() for _ in range(p_nbus[k])] for k in range(K)
    ]
    bus_heap: List[List[Tuple[int, int]]] = [[] for _ in range(K)]
    cycles = [0] * K
    last_event = [0] * K
    records = [item.record for item in group]

    telemetry = telemetry_collecting()
    # Buffer shape (occupancy, flushes) is config-independent and comes
    # from the shared per-trace cache.  Issue-width run lengths depend
    # on latencies, so they stay per spec; runs never exceed the buffer
    # width, so the histograms live in flat lists.
    t_run = [0] * K
    t_run_cycle = [-1] * K
    t_width: List[List[int]] = [[0] * (units + 1) for _ in range(K)]

    ops = compiled.ops
    n_entries = compiled.n
    pos = 0
    while pos < n_entries:
        end = pos + units
        if end > n_entries:
            end = n_entries
        index = pos
        cut = False
        is_branch = False
        while index < end:
            unit, dest, srcs, is_branch, taken, _v, _vl, _bus, _c = ops[index]
            slot = index - pos
            for k in range(K):
                latency = p_lat[k][unit]
                regs = reg_ready[k]
                cycle = cycles[k]

                earliest = cycle
                for src in srcs:
                    ready = regs[src]
                    if ready > earliest:
                        earliest = ready
                if dest >= 0:
                    ready = regs[dest]
                    if ready > earliest:
                        earliest = ready
                ready = fu_free[k][unit]
                if ready > earliest:
                    earliest = ready

                if dest >= 0:
                    heap = bus_heap[k]
                    buses_k = buses[k]
                    while heap and heap[0][0] <= cycle:
                        done, bus_index = heappop(heap)
                        buses_k[bus_index].discard(done)
                    target = earliest + latency
                    if p_xbar[k]:
                        while True:
                            chosen = -1
                            for bus_index, reserved in enumerate(buses_k):
                                if target not in reserved:
                                    chosen = bus_index
                                    break
                            if chosen >= 0:
                                break
                            earliest += 1
                            target += 1
                    else:
                        chosen = slot % p_nbus[k]
                        reserved = buses_k[chosen]
                        while target in reserved:
                            earliest += 1
                            target += 1
                    buses_k[chosen].add(target)
                    heappush(heap, (target, chosen))

                cycle = earliest
                if telemetry:
                    # Issue cycles are globally nondecreasing, so equal
                    # neighbours form one multi-issue cycle: run-length
                    # encode them into the width histogram.
                    if cycle == t_run_cycle[k]:
                        t_run[k] += 1
                    else:
                        run = t_run[k]
                        if run:
                            t_width[k][run] += 1
                        t_run[k] = 1
                        t_run_cycle[k] = cycle
                complete = cycle + latency
                fu_free[k][unit] = cycle + 1
                if dest >= 0:
                    regs[dest] = complete
                if not is_branch and complete > last_event[k]:
                    last_event[k] = complete
                if records[k] is not None:
                    records[k].append((
                        cycle,
                        cycle + p_brlat[k] if is_branch else complete,
                    ))

                if is_branch:
                    resolve = cycle + p_brlat[k]
                    if resolve > last_event[k]:
                        last_event[k] = resolve
                    cycle = resolve
                cycles[k] = cycle
            index += 1
            if is_branch and taken:
                cut = True
                break

        pos = index
        if not cut and not is_branch:
            # Full buffer issued, straight-line tail: the refill is
            # overlapped, examinable the cycle after the last issue.
            for k in range(K):
                cycles[k] += 1

    details: List[Dict[str, float]] = [{}] * K
    if telemetry:
        t_occ, t_flushes, t_flush_cycles = window_stats(compiled, units)
        details = []
        for k in range(K):
            run = t_run[k]
            if run:
                t_width[k][run] += 1
            details.append(
                SimTelemetry(
                    instructions=compiled.n,
                    cycles=max(last_event[k], 1),
                    stall_cycles={},
                    fu_busy_cycles=_closed_busy(
                        compiled, p_lat[k], p_brlat[k]
                    ),
                    issue_width={
                        w: c for w, c in enumerate(t_width[k]) if c
                    },
                    occupancy=t_occ,
                    flushes=t_flushes,
                    flush_cycles=t_flush_cycles,
                ).to_detail()
            )

    return [
        _result(compiled, item.simulator, item.config, max(last_event[k], 1),
                details[k])
        for k, item in enumerate(group)
    ]


# ----------------------------------------------------------------------
# Out-of-order multiple issue (Section 5.2): shared hazard bitmasks
# ----------------------------------------------------------------------

#: Drain-variant tags for out-of-order buffer records (see
#: :func:`_ooo_plan`).
_SINGLE, _INDEP, _NOBRANCH, _GENERAL = 0, 1, 2, 3

#: Cached buffer plans keyed by ``(id(compiled), units, enforce_war)``;
#: the weak reference validates the key and evicts with the compiled
#: trace, mirroring :data:`repro.core.fastpath.ir._CACHE`.
_OOO_PLANS: Dict[Tuple[int, int, bool], Tuple["weakref.ref", list]] = {}


def _ooo_plan(compiled, units: int, enforce_war: bool) -> List[tuple]:
    """Decode every fetch buffer of *compiled* once for an out-of-order
    machine of the given issue width and WAR policy.

    The buffer cut (after the first taken branch) and the intra-buffer
    hazard structure are config-independent, so the plan is shared by
    every sweep member and cached across sweep calls on the same
    compiled trace.  Records are ``(pos, tag, payload, full_mask)``;
    payload is the op tuple for singles, else a tuple of per-slot
    tuples unpacked by the drains in :func:`_sweep_ooo`.
    """
    key = (id(compiled), units, enforce_war)
    hit = _OOO_PLANS.get(key)
    if hit is not None and hit[0]() is compiled:
        return hit[1]

    ops = compiled.ops
    n_entries = compiled.n
    buffers: List[tuple] = []
    pos = 0
    while pos < n_entries:
        end = pos + units
        if end > n_entries:
            end = n_entries
        blen = 0
        for index in range(pos, end):
            blen += 1
            op = ops[index]
            if op[3] and op[4]:
                break
        if blen == 1:
            buffers.append((pos, _SINGLE, ops[pos], 0))
            pos += 1
            continue

        s_unit = [0] * blen
        s_dest = [0] * blen
        s_srcs: List[Tuple[int, ...]] = [()] * blen
        s_isbr = [False] * blen
        any_branch = False
        units_seen = 0
        indep = True
        for slot in range(blen):
            op = ops[pos + slot]
            unit = op[0]
            s_unit[slot] = unit
            s_dest[slot] = op[1]
            s_srcs[slot] = op[2]
            unit_bit = 1 << unit
            if units_seen & unit_bit:
                indep = False
            units_seen |= unit_bit
            if op[3]:
                s_isbr[slot] = True
                any_branch = True

        # Per-slot hazard masks against earlier slots: dep_mask covers
        # RAW/WAW (and WAR when enforced) against *unissued* earlier
        # slots, branches_before the control dependence on earlier
        # branch slots.
        dep_mask = [0] * blen
        branches_before = [0] * blen
        br_slots_before: List[Tuple[int, ...]] = [()] * blen
        for slot in range(1, blen):
            dest = s_dest[slot]
            srcs = s_srcs[slot]
            mask = 0
            bb = 0
            brs: List[int] = []
            for earlier in range(slot):
                if s_isbr[earlier]:
                    bb |= 1 << earlier
                    brs.append(earlier)
                edest = s_dest[earlier]
                if edest >= 0 and (
                    edest in srcs or (dest >= 0 and edest == dest)
                ):
                    mask |= 1 << earlier
                elif dest >= 0 and dest in s_srcs[earlier]:
                    indep = False
                    if enforce_war:
                        mask |= 1 << earlier
            if mask:
                indep = False
            dep_mask[slot] = mask
            branches_before[slot] = bb
            br_slots_before[slot] = tuple(brs)

        full_mask = (1 << blen) - 1
        if any_branch:
            payload = tuple(
                (1 << slot, dep_mask[slot], branches_before[slot],
                 br_slots_before[slot], s_unit[slot], s_dest[slot],
                 s_srcs[slot], s_isbr[slot])
                for slot in range(blen)
            )
            buffers.append((pos, _GENERAL, payload, full_mask))
        else:
            payload = tuple(
                (1 << slot, dep_mask[slot], s_unit[slot], s_dest[slot],
                 s_srcs[slot])
                for slot in range(blen)
            )
            tag = _INDEP if indep else _NOBRANCH
            buffers.append((pos, tag, payload, full_mask))
        pos += blen

    def _evict(_ref: object, _key=key) -> None:
        _OOO_PLANS.pop(_key, None)

    _OOO_PLANS[key] = (weakref.ref(compiled, _evict), buffers)
    return buffers


def _sweep_ooo(compiled, units, enforce_war, group) -> List[SimulationResult]:
    """Shared buffer decomposition + per-buffer hazard bitmasks; the
    per-spec scan tests ``dep_mask & unissued`` / ``branches_before &
    unissued`` instead of walking earlier slots each cycle.

    The sweep runs in two phases.  Phase 1 decodes every fetch buffer
    once -- the buffer cut (after the first taken branch) and the
    intra-buffer hazard structure are config-independent -- and tags
    each with the cheapest drain that reproduces the reference:

    ``single``
        One slot (the tail, and right after a taken branch): no
        intra-buffer hazards, so the issue cycle is a closed-form max
        over operand/unit readiness plus a result-bus probe.
    ``independent``
        No branch, no shared functional unit, and no register shared in
        any direction (WAR overlap disqualifies even when not enforced,
        because a later write still raises an earlier read's floor once
        issued).  With per-slot result buses no slot can observe
        another, so each issues at its own closed-form cycle -- exactly
        where the reference scan lands via progress steps and jumps.
        Specs with a shared bus (1-Bus, crossbar) fall back to the
        branch-free drain.
    ``branch-free`` / ``general``
        The scan drain, with the reference's separate jump-candidate
        pass folded into the issue scan: candidates are only consulted
        when the scan issued nothing, exactly the case where no state
        changed during the scan, so inline candidates equal what a
        second pass over the same state would compute.

    Phase 2 replays the prebuilt buffer records once per sweep member
    with that member's latencies, bus wiring and machine state bound as
    locals for the whole trace.

    Bus reservations are grow-only sets rather than the reference's
    pruned set + heap: every membership probe targets a cycle strictly
    greater than the current one, while every entry pruning would drop
    is less than or equal to it, so stale entries can never satisfy a
    probe and the prune is unobservable.
    """
    K = len(group)
    p_lat: List[List[int]] = []
    p_brlat: List[int] = []
    p_nbus: List[int] = []
    p_xbar: List[bool] = []
    for item in group:
        table = item.config.latencies
        p_lat.append([table.latency(unit) for unit in UNITS])
        p_brlat.append(item.config.branch_latency)
        kind = item.simulator.bus_kind
        p_nbus.append(1 if kind is BusKind.ONE_BUS else units)
        p_xbar.append(kind is BusKind.X_BAR)

    buffers = _ooo_plan(compiled, units, enforce_war)

    telemetry = telemetry_collecting()
    # Buffer occupancy and taken-branch flushes depend only on the
    # taken flags (shared per-trace cache); single-slot buffers always
    # issue alone, so their width-1 contribution is one count, not one
    # dict update per buffer per spec.
    t_occ: Dict[int, int] = {}
    t_flushes = 0
    t_flush_cycles = 0
    t_singles = 0
    if telemetry:
        t_occ, t_flushes, t_flush_cycles = window_stats(compiled, units)
        for _pos, tag, _payload, _fm in buffers:
            if tag == _SINGLE:
                t_singles += 1
    t_details: List[Dict[str, float]] = [{}] * K

    # ------------------------------------------------------------------
    # Phase 2: replay the records once per sweep member.
    # ------------------------------------------------------------------
    n_units = len(UNITS)
    last_events = [0] * K
    tracking = [item.record is not None for item in group]
    issue_at = [
        [0] * compiled.n if tracking[k] else None for k in range(K)
    ]
    complete_at = [
        [0] * compiled.n if tracking[k] else None for k in range(K)
    ]

    for k in range(K):
        latencies = p_lat[k]
        brlat = p_brlat[k]
        nb = p_nbus[k]
        xb = p_xbar[k]
        regs = [0] * N_REGISTERS
        fuf = [0] * n_units
        buses_k = [set() for _ in range(nb)]
        # slot -> result bus, replacing `slot % nb` in the drains (a
        # slot index never exceeds the issue-unit count).
        busmap = buses_k if nb != 1 else buses_k * units
        track = tracking[k]
        issue_k = issue_at[k]
        complete_k = complete_at[k]
        cycle = 0
        last_event = 0
        closed_ok = nb != 1 and not xb
        # Scan passes issue at most `units` slots, so width counts live
        # in a flat list; single-slot buffers are added once at the end.
        t_width = [0] * (units + 1)
        t_cs: List[int] = []
        t_cs_append = t_cs.append

        for pos, tag, payload, full_mask in buffers:
            if tag == _SINGLE:
                unit, dest, srcs, is_branch = payload[:4]
                c = cycle
                for src in srcs:
                    ready = regs[src]
                    if ready > c:
                        c = ready
                if dest >= 0:
                    ready = regs[dest]
                    if ready > c:
                        c = ready
                    ready = fuf[unit]
                    if ready > c:
                        c = ready
                    complete = c + latencies[unit]
                    if xb:
                        chosen = -1
                        for bus_index in range(nb):
                            if complete not in buses_k[bus_index]:
                                chosen = bus_index
                                break
                        if chosen < 0:
                            while all(complete in bus for bus in buses_k):
                                c += 1
                                complete += 1
                            for bus_index in range(nb):
                                if complete not in buses_k[bus_index]:
                                    chosen = bus_index
                                    break
                        reserved = buses_k[chosen]
                    else:
                        reserved = buses_k[0]
                        while complete in reserved:
                            c += 1
                            complete += 1
                    reserved.add(complete)
                    regs[dest] = complete
                else:
                    ready = fuf[unit]
                    if ready > c:
                        c = ready
                    complete = c + latencies[unit]
                fuf[unit] = c + 1
                if is_branch:
                    resolve = c + brlat
                    if resolve > last_event:
                        last_event = resolve
                    cycle = c + 1 if c + 1 > resolve else resolve
                    if track:
                        issue_k[pos] = c
                        complete_k[pos] = resolve
                else:
                    if complete > last_event:
                        last_event = complete
                    cycle = c + 1
                    if track:
                        issue_k[pos] = c
                        complete_k[pos] = complete
                continue

            if tag == _INDEP and closed_ok:
                maxc = cycle
                for slot, (bit, dep, unit, dest, srcs) in enumerate(
                    payload
                ):
                    c = cycle
                    for src in srcs:
                        ready = regs[src]
                        if ready > c:
                            c = ready
                    ready = fuf[unit]
                    if ready > c:
                        c = ready
                    complete = c + latencies[unit]
                    if dest >= 0:
                        ready = regs[dest]
                        if ready > c:
                            c = ready
                            complete = c + latencies[unit]
                        reserved = buses_k[slot]
                        while complete in reserved:
                            c += 1
                            complete += 1
                        reserved.add(complete)
                        regs[dest] = complete
                    fuf[unit] = c + 1
                    if complete > last_event:
                        last_event = complete
                    if c > maxc:
                        maxc = c
                    if telemetry:
                        t_cs_append(c)
                    if track:
                        issue_k[pos + slot] = c
                        complete_k[pos + slot] = complete
                if telemetry:
                    # Slots may share an issue cycle only within this
                    # buffer (the next one starts past ``maxc``), so the
                    # per-buffer multiset gives the per-cycle widths;
                    # pairwise counting over <= `units` entries beats a
                    # per-slot dict by a wide margin.
                    m = len(t_cs)
                    if m == 1:
                        t_width[1] += 1
                    else:
                        counted = 0
                        for i in range(m):
                            if counted >> i & 1:
                                continue
                            ci = t_cs[i]
                            run = 1
                            for j in range(i + 1, m):
                                if t_cs[j] == ci:
                                    run += 1
                                    counted |= 1 << j
                            t_width[run] += 1
                    t_cs.clear()
                cycle = maxc + 1
                continue

            if tag != _GENERAL:
                # Branch-free drain: data hazards + structural conflicts
                # only.
                unissued = full_mask
                guard = 0
                while unissued:
                    guard += 1
                    if guard > _MAX_BUFFER_CYCLES:  # pragma: no cover
                        raise RuntimeError(
                            f"buffer failed to drain at trace pos {pos}"
                        )
                    progressed = False
                    nxt = -1
                    before = unissued
                    for slot, (bit, dep, unit, dest, srcs) in enumerate(
                        payload
                    ):
                        if not unissued & bit:
                            continue
                        # RAW/WAW (and optionally WAR) against unissued
                        # earlier slots; gated slots are bounded by the
                        # gating slot's own candidate.
                        if dep & unissued:
                            continue
                        earliest = cycle
                        for src in srcs:
                            ready = regs[src]
                            if ready > earliest:
                                earliest = ready
                        if dest >= 0:
                            ready = regs[dest]
                            if ready > earliest:
                                earliest = ready
                        ready = fuf[unit]
                        if ready > earliest:
                            earliest = ready
                        latency = latencies[unit]
                        if earliest > cycle:
                            # Not ready: jump candidate (used only when
                            # nothing issues this scan, i.e. when state
                            # did not change under us).
                            cand = earliest
                            if dest >= 0:
                                if xb:
                                    while all(
                                        cand + latency in bus
                                        for bus in buses_k
                                    ):
                                        cand += 1
                                else:
                                    reserved = busmap[slot]
                                    while cand + latency in reserved:
                                        cand += 1
                            if nxt < 0 or cand < nxt:
                                nxt = cand
                            continue
                        complete = cycle + latency
                        if dest >= 0:
                            if xb:
                                chosen = -1
                                for bus_index in range(nb):
                                    if complete not in buses_k[bus_index]:
                                        chosen = bus_index
                                        break
                                if chosen < 0:
                                    cand = cycle + 1
                                    while all(
                                        cand + latency in bus
                                        for bus in buses_k
                                    ):
                                        cand += 1
                                    if nxt < 0 or cand < nxt:
                                        nxt = cand
                                    continue
                                reserved = buses_k[chosen]
                            else:
                                reserved = busmap[slot]
                                if complete in reserved:
                                    cand = cycle + 1
                                    while cand + latency in reserved:
                                        cand += 1
                                    if nxt < 0 or cand < nxt:
                                        nxt = cand
                                    continue
                            regs[dest] = complete
                            reserved.add(complete)
                        # Issue slot at `cycle`.
                        unissued &= ~bit
                        progressed = True
                        fuf[unit] = cycle + 1
                        if complete > last_event:
                            last_event = complete
                        if track:
                            issue_k[pos + slot] = cycle
                            complete_k[pos + slot] = complete
                        if not unissued:
                            break
                    if telemetry:
                        # Scan passes visit strictly increasing cycles,
                        # so the issues of one pass are one cycle's
                        # issue width (issued bits = before ^ unissued,
                        # since unissued only ever loses bits).
                        issued = (before ^ unissued).bit_count()
                        if issued:
                            t_width[issued] += 1
                    if unissued:
                        if progressed:
                            cycle += 1
                        else:
                            cycle = nxt if nxt > cycle else cycle + 1
                # Next buffer starts the cycle after the last issue.
                cycle += 1
                continue

            # General drain: branches gate later slots until resolved.
            unissued = full_mask
            branch_resolve = [_UNKNOWN] * len(payload)
            barrier = 0
            guard = 0
            while unissued:
                guard += 1
                if guard > _MAX_BUFFER_CYCLES:  # pragma: no cover
                    raise RuntimeError(
                        f"buffer failed to drain at trace pos {pos}"
                    )
                progressed = False
                nxt = -1
                before = unissued
                for slot, (
                    bit, dep, bb, brs, unit, dest, srcs, isbr
                ) in enumerate(payload):
                    if not unissued & bit:
                        continue
                    # Gated by an earlier *unissued* slot (branch or
                    # hazard): that slot's own candidate bounds this
                    # one, so it contributes nothing to the jump.
                    if (dep | bb) & unissued:
                        continue
                    # Control: every earlier branch (all issued now)
                    # must also have resolved.
                    control_floor = 0
                    if bb:
                        for b in brs:
                            resolve = branch_resolve[b]
                            if resolve > control_floor:
                                control_floor = resolve
                    earliest = cycle
                    for src in srcs:
                        ready = regs[src]
                        if ready > earliest:
                            earliest = ready
                    if dest >= 0:
                        ready = regs[dest]
                        if ready > earliest:
                            earliest = ready
                    ready = fuf[unit]
                    if ready > earliest:
                        earliest = ready
                    latency = latencies[unit]
                    if earliest > cycle or control_floor > cycle:
                        cand = cycle + 1
                        if control_floor > cand:
                            cand = control_floor
                        if earliest > cand:
                            cand = earliest
                        if dest >= 0:
                            if xb:
                                while all(
                                    cand + latency in bus
                                    for bus in buses_k
                                ):
                                    cand += 1
                            else:
                                reserved = busmap[slot]
                                while cand + latency in reserved:
                                    cand += 1
                        if nxt < 0 or cand < nxt:
                            nxt = cand
                        continue
                    complete = cycle + latency
                    if dest >= 0:
                        if xb:
                            chosen = -1
                            for bus_index in range(nb):
                                if complete not in buses_k[bus_index]:
                                    chosen = bus_index
                                    break
                            if chosen < 0:
                                cand = cycle + 1
                                while all(
                                    cand + latency in bus
                                    for bus in buses_k
                                ):
                                    cand += 1
                                if nxt < 0 or cand < nxt:
                                    nxt = cand
                                continue
                            reserved = buses_k[chosen]
                        else:
                            reserved = busmap[slot]
                            if complete in reserved:
                                cand = cycle + 1
                                while cand + latency in reserved:
                                    cand += 1
                                if nxt < 0 or cand < nxt:
                                    nxt = cand
                                continue
                        regs[dest] = complete
                        reserved.add(complete)
                    # Issue slot at `cycle`.
                    unissued &= ~bit
                    progressed = True
                    fuf[unit] = cycle + 1
                    if isbr:
                        resolve = cycle + brlat
                        branch_resolve[slot] = resolve
                        if resolve > last_event:
                            last_event = resolve
                        if resolve > barrier:
                            barrier = resolve
                        if track:
                            issue_k[pos + slot] = cycle
                            complete_k[pos + slot] = resolve
                    else:
                        if complete > last_event:
                            last_event = complete
                        if track:
                            issue_k[pos + slot] = cycle
                            complete_k[pos + slot] = complete
                    if not unissued:
                        break
                if telemetry:
                    issued = (before ^ unissued).bit_count()
                    if issued:
                        t_width[issued] += 1
                if unissued:
                    if progressed:
                        cycle += 1
                    else:
                        cycle = nxt if nxt > cycle else cycle + 1
            # The next buffer is available the cycle after the last
            # issue, but never before every branch in this buffer has
            # resolved.
            cycle = cycle + 1 if cycle + 1 > barrier else barrier

        last_events[k] = last_event
        if telemetry:
            t_width[1] += t_singles
            t_details[k] = SimTelemetry(
                instructions=compiled.n,
                cycles=max(last_event, 1),
                stall_cycles={},
                fu_busy_cycles=_closed_busy(compiled, latencies, brlat),
                issue_width={w: c for w, c in enumerate(t_width) if c},
                occupancy=t_occ,
                flushes=t_flushes,
                flush_cycles=t_flush_cycles,
            ).to_detail()

    results = []
    for k, item in enumerate(group):
        if tracking[k]:
            item.record.extend(zip(issue_at[k], complete_at[k]))
        results.append(
            _result(compiled, item.simulator, item.config,
                    max(last_events[k], 1), t_details[k])
        )
    return results


# ----------------------------------------------------------------------
# RUU dependency resolution (Section 5.3): shared rename plan, reuse
# ----------------------------------------------------------------------

def _sweep_ruu(compiled, group) -> List[SimulationResult]:
    """Every RUU variant over one trace.

    All members share the trace's cached rename plan
    (:func:`~repro.core.fastpath.python_backend.ruu_plan`) and run the
    one RUU loop (:func:`~repro.core.fastpath.python_backend.ruu_replay`).
    Members that differ only in RUU size are replayed largest first: a
    run whose peak occupancy stayed below the next smaller size never
    found the RUU full, so that size replays it cycle for cycle and takes
    a copy of its result instead of a replay.  Members that agree on
    every timing parameter (``ruu:1:R`` over N-Bus and 1-Bus, whose three
    paths are all one wide) share one replay the same way.  Members
    served from another's replay count as ``reused_runs``.
    """
    classes: Dict[Tuple, List[int]] = {}
    for k, item in enumerate(group):
        machine, config = item.simulator, item.config
        table = config.latencies
        key = (
            tuple(table.latency(unit) for unit in UNITS),
            config.branch_latency,
            machine.issue_units,
            machine.path_width,
            machine.bypass,
            machine.ordered_memory,
            machine.fu_copies,
        )
        classes.setdefault(key, []).append(k)

    results: List[SimulationResult] = [None] * len(group)  # type: ignore
    for members in classes.values():
        members.sort(key=lambda k: -group[k].simulator.ruu_size)
        tracking = any(group[k].record is not None for k in members)
        run = None
        run_size = 0
        for k in members:
            item = group[k]
            size = item.simulator.ruu_size
            if run is not None and (run.peak < size or size == run_size):
                count_run("batch", "reused_runs")
            else:
                run = ruu_replay(compiled, item.simulator, item.config,
                                 tracking)
                run_size = size
            if item.record is not None:
                item.record.extend(run.schedule)
            results[k] = _result(compiled, item.simulator, item.config,
                                 run.cycles, dict(run.detail))
    return results


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------

class BatchBackend(Backend):
    """Sweep-shaped replay: group by structure key, share the analysis."""

    name = "batch"
    counter_names = ("fast_runs", "sweeps", "fallback_runs", "reused_runs")

    def simulate(self, simulator, trace, config, record=None):
        """A single replay has no sweep to amortise over; serve it with
        the per-spec loop (attributed to the ``python`` backend)."""
        return get_backend("python").simulate(simulator, trace, config, record)

    def simulate_sweep(self, trace: Trace, items) -> List[SimulationResult]:
        compiled = compile_trace(trace)
        if compiled.has_vector:
            # Mirror per-item dispatch: the first non-scoreboard machine
            # in item order raises the reference loops' scalar-only error.
            for item in items:
                if family_of(item.simulator) != "scoreboard":
                    _scalar_only(item.simulator)
        count_run("batch", "sweeps")

        groups: Dict[Tuple, List[int]] = {}
        for i, item in enumerate(items):
            family = family_of(item.simulator)
            if family not in _BATCHED_FAMILIES:
                key: Tuple = ("fallback",)
            elif family == "inorder":
                key = ("inorder", item.simulator.issue_units)
            elif family == "ooo":
                key = (
                    "ooo",
                    item.simulator.issue_units,
                    item.simulator.enforce_war,
                )
            else:
                key = (family,)
            groups.setdefault(key, []).append(i)

        results: List[SimulationResult] = [None] * len(items)  # type: ignore
        for key, indices in groups.items():
            group = [items[i] for i in indices]
            family = key[0]
            if family == "fallback":
                python = get_backend("python")
                count_run("batch", "fallback_runs", len(group))
                batch = python.simulate_sweep(trace, group)
            else:
                count_run("batch", "fast_runs", len(group))
                if family == "scoreboard":
                    batch = _sweep_scoreboard(compiled, group)
                elif family == "cdc6600":
                    batch = _sweep_cdc6600(compiled, group)
                elif family == "inorder":
                    batch = _sweep_inorder(compiled, key[1], group)
                elif family == "ruu":
                    batch = _sweep_ruu(compiled, group)
                else:
                    batch = _sweep_ooo(compiled, key[1], key[2], group)
            for i, result in zip(indices, batch):
                results[i] = result
        return results


register_backend(BatchBackend())
