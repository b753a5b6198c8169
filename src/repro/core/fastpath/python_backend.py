"""The compiled loops: one per machine family.

One compiled fast loop per machine family, each a bit-identical twin of
that family's ``reference_simulate``: state held in flat integer arrays
(one ``int`` slot per architectural register and per functional unit)
instead of hash tables, per-unit latency/pipelining tables built once
per call, and a min-heap of outstanding completion events so stale
result-bus reservations are pruned as the issue front passes them
(state stays O(outstanding writes), not O(trace length)).

Like the reference loops, the fast loops never scan idle cycles: both
jump straight from one issue decision to the next, so the only scans
left are the short result-bus conflict probes, which the heap keeps
bounded.

Two families replay through a kernel that also serves the batch sweep
(:mod:`~repro.core.fastpath.batch`): :func:`ruu_replay` over the
trace's rename plan, and :func:`ooo_replay` over an out-of-order buffer
plan, which a single replay calls as a one-member group.  Both plans
are memoised on the compiled trace
(:func:`~repro.core.fastpath.ir.per_trace`), so every replay of one
trace shares them and they die with its compilation.
The state arrays are plain Python ``int`` lists, not NumPy vectors:
the recurrences are data-dependent (issue decisions feed the very next
comparison), and at sweep widths of 4-20 the per-op ufunc dispatch
overhead would dominate any arithmetic saved.

Those two loops also skip work, not just idle cycles: the steady-state
fast-forward.  Inside a periodic region of the compiled trace
(``CompiledTrace.regions``: one loop body repeated) the loop takes its
state at each body boundary relative to the cycle and the boundary seq
-- the live RUU entries, or the out-of-order register, unit and bus
ready cycles, clamped at the current cycle.  The machines are
deterministic and their timing reads only the ops, so once that state
repeats after ``p`` bodies and ``dc`` cycles, every later period
repeats it too: the loop shifts its live state by as many whole periods
as stay inside the region, adds that many times the period's deltas to
its histograms, busy, stall and width counters, shifts the recorded
schedule under ``record``, and replays the rest as before.  A cheap
signature (issue offset, live count, cycle gap) gates the full key, so
boundaries cost O(1) until a repeat is likely, and traces without
regions (fuzzed, seeded generators) never check at all.  Skipped
instructions count as ``python.skipped_instructions``.  The in-order,
scoreboard, CDC 6600, Tomasulo and speculative loops have no
fast-forward.

Bit-identity is a hard invariant, enforced three ways:

* machines auto-select this path **only** when
  :func:`repro.core.fastpath.fast_eligible` allows it (fast path
  enabled) and run the reference loop otherwise; observed replays
  (``simulate_observed``) always run the reference loop;
* ``tests/test_fastpath_diff.py`` replays hundreds of fuzzed traces
  through both paths and compares cycle counts, issue rates and
  per-instruction issue/completion schedules;
* the cross-machine oracle (:mod:`repro.verify.oracle`) checks the
  fast path's cycles and recorded schedule against an observed run of
  the reference loop as an exact dual on every ``repro verify``
  replay, including the nightly 1000-seed shards.

:data:`FAMILY_LOOPS` maps each compiled family to its loop, with the
signature ``loop(machine, trace, config, record=None)``; it is how
:meth:`repro.core.base.CompiledSimulator.simulate` dispatches and how
:func:`repro.core.fastpath.simulate_sweep` serves sweep members the
batch kernels do not cover (the package does not re-export the loops).
Every run through it counts as ``python.fast_runs``.

Telemetry: every loop also fills a closed-form
:class:`~repro.obs.telemetry.SimTelemetry` record -- stall cycles by
reason, per-unit busy cycles, issue-width and occupancy histograms,
flush counts -- attached to ``SimulationResult.detail`` as ``tlm.*``
entries.  The record is O(instructions) integer bookkeeping on the
loops' existing state (no event objects, timing untouched) and is
differentially tested against the event-derived record from the
reference loops (``tests/test_obs_telemetry.py``, the oracle's
telemetry check).  There is no switch and no telemetry-off copy of any
loop, so every result record -- fresh or served from a cache -- carries
the same ``tlm.*`` fields.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import islice
from typing import Dict, List, NamedTuple, Optional, Tuple

from ...obs.telemetry import SimTelemetry
from ...trace import Trace
from ..buses import BusKind
from ..config import MachineConfig
from ..result import SimulationResult
from .backends import SweepItem, count_run
from .ir import (
    CompiledTrace,
    N_REGISTERS,
    Schedule,
    UNITS,
    _A0,
    _MAX_CYCLES,
    _MEMORY,
    _UNKNOWN,
    _unit_tables,
    compile_trace,
    per_trace,
    unit_profile,
    window_stats,
)

__all__ = [
    "FAMILY_LOOPS",
    "ooo_replay",
    "simulate_cdc6600_fast",
    "simulate_inorder_fast",
    "simulate_ruu_fast",
    "simulate_scoreboard_fast",
    "simulate_spec_fast",
    "simulate_tomasulo_fast",
]

#: Functional-unit display names indexed like :data:`UNITS`.
_UNIT_NAMES = tuple(unit.name for unit in UNITS)


def _closed_busy(compiled, latencies, branch_latency) -> Dict[str, int]:
    """Per-unit busy cycles for machines whose per-op busy span is
    closed-form: ``latency (+ vector length)`` per non-branch op and the
    branch latency per branch (the ISSUE..COMPLETE window the reference
    event streams report)."""
    counts, vl_sums, branches = unit_profile(compiled)
    busy: Dict[str, int] = {}
    for unit in range(len(_UNIT_NAMES)):
        total = (
            counts[unit] * latencies[unit]
            + vl_sums[unit]
            + branches[unit] * branch_latency
        )
        if total:
            busy[_UNIT_NAMES[unit]] = total
    return busy


def require_scalar(compiled: CompiledTrace, machine) -> CompiledTrace:
    """*compiled*, or the reference loops' scalar-only error for
    *machine* when the trace holds vector operations (every family but
    the scoreboard issues scalar code only)."""
    if compiled.has_vector:
        from ..base import scalar_only_error

        raise scalar_only_error(machine.name)
    return compiled


def _result(compiled, machine, config, cycles, detail) -> SimulationResult:
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=compiled.n,
        cycles=cycles,
        detail=detail,
    )


# ----------------------------------------------------------------------
# Scoreboard family (Section 3.2): single issue, issue-blocking
# ----------------------------------------------------------------------

def simulate_scoreboard_fast(
    machine,
    trace: Trace,
    config: MachineConfig,
    record: Optional[Schedule] = None,
) -> SimulationResult:
    """Fast twin of :meth:`ScoreboardMachine.reference_simulate`.

    Bit-identical by construction: same recurrence, same tie-breaks,
    state held in integer arrays instead of ``Register``/unit-keyed
    dictionaries.  *record*, when given, receives one ``(issue,
    complete)`` pair per instruction -- the same cycles the reference
    path's event stream reports (differential tests compare them).
    """
    compiled = compile_trace(trace)
    count_run("python", "fast_runs")
    latencies, pipelined = _unit_tables(
        config, machine.fu_pipelined, machine.memory_interleaved
    )
    branch_latency = config.branch_latency
    model_bus = machine.model_result_bus
    chaining = machine.vector_chaining

    reg_ready = [0] * N_REGISTERS
    write_done = [0] * N_REGISTERS
    fu_free = [0] * len(UNITS)
    # Result-bus reservations: membership set plus a completion-event
    # min-heap.  The issue front (`next_issue`) only ever probes cycles
    # >= next_issue + 1, so reservations at or before it are dead and
    # are pruned as the heap root passes behind the front.
    bus_reserved = set()
    bus_heap: List[int] = []
    next_issue = 0
    last_event = 0
    tracking = record is not None

    # Stall attribution is fused into the recurrence: the binding
    # constraint is labelled by the very comparisons that compute it
    # (RAW -> WAW -> UNIT -> BUS, each relabelling only on a strict
    # improvement -- exactly the reference tracking chain's attribution
    # order), and all remaining attribution work is confined to
    # instructions that actually stalled (``issue > next_issue``).  The
    # branch shadow (the ``branch_latency - 1`` slots behind every
    # branch) is credited to BRANCH when the branch issues; when the
    # next instruction stalls past the shadow the reference charges the
    # *whole* gap to the binding constraint, so the pre-credit is taken
    # back on that path (and after the loop for a trace ending in a
    # branch, whose shadow no instruction ever pays).
    t_acc = [0, 0, 0, 0, 0, 0]  # NONE, RAW, WAW, UNIT, BUS, BRANCH
    t_prev = -1
    t_shadow_credit = branch_latency - 1
    reason = 0
    for unit, dest, srcs, is_branch, _tk, is_vector, vl, uses_bus, _c in (
        compiled.ops
    ):
        latency = latencies[unit]

        earliest = next_issue
        for src in srcs:
            ready = reg_ready[src]
            if ready > earliest:
                earliest = ready
                reason = 1
        if dest >= 0:
            ready = write_done[dest]
            if ready > earliest:
                earliest = ready
                reason = 2
        ready = fu_free[unit]
        if ready > earliest:
            earliest = ready
            reason = 3
        if model_bus and uses_bus:
            while bus_heap and bus_heap[0] <= next_issue:
                bus_reserved.discard(heappop(bus_heap))
            while earliest + latency in bus_reserved:
                earliest += 1
                reason = 4

        issue = earliest
        if issue > next_issue:
            # A strict improvement set `reason` this iteration; the
            # gap runs from the previous issue slot and is charged
            # whole, shadow cycles included.
            gap = issue - t_prev - 1
            t_acc[reason] += gap
            shadow = gap - issue + next_issue
            if shadow:
                t_acc[5] -= shadow
        t_prev = issue

        complete = issue + latency + vl
        if model_bus and uses_bus:
            bus_reserved.add(complete)
            heappush(bus_heap, complete)

        if is_vector:
            fu_free[unit] = issue + vl if pipelined[unit] else complete
        else:
            fu_free[unit] = issue + 1 if pipelined[unit] else complete

        if dest >= 0:
            if is_vector and chaining:
                reg_ready[dest] = issue + latency
            else:
                reg_ready[dest] = complete
            write_done[dest] = complete

        if is_branch:
            next_issue = issue + branch_latency
            complete = next_issue
            t_acc[5] += t_shadow_credit
        else:
            next_issue = issue + 1

        if complete > last_event:
            last_event = complete
        if tracking:
            record.append((issue, complete))
    if compiled.n and compiled.ops[-1][3]:
        t_acc[5] -= t_shadow_credit

    detail = SimTelemetry(
        instructions=compiled.n,
        cycles=last_event,
        stall_cycles={
            "RAW": t_acc[1],
            "WAW": t_acc[2],
            "UNIT": t_acc[3],
            "BUS": t_acc[4],
            "BRANCH": t_acc[5],
        },
        fu_busy_cycles=_closed_busy(compiled, latencies, branch_latency),
        issue_width={1: compiled.n},
    ).to_detail()
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=compiled.n,
        cycles=last_event,
        detail=detail,
    )


# ----------------------------------------------------------------------
# In-order multiple issue (Section 5.1)
# ----------------------------------------------------------------------

def simulate_inorder_fast(
    machine,
    trace: Trace,
    config: MachineConfig,
    record: Optional[Schedule] = None,
) -> SimulationResult:
    """Fast twin of the in-order multi-issue reference loop.

    The reference re-examines a blocked slot after bumping the cycle
    floor; because the machine state is untouched between the two
    examinations, the re-scan returns the same cycle, so this loop
    folds both passes into one ``max`` chain plus one bus probe.  The
    buffer cut (up to N slots, ending at the first taken branch) is
    derived from the compiled ``taken`` flags.
    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("python", "fast_runs")
    latencies, _ = _unit_tables(config, True, True)
    branch_latency = config.branch_latency
    units = machine.issue_units
    kind = machine.bus_kind
    n_buses = 1 if kind is BusKind.ONE_BUS else units
    xbar = kind is BusKind.X_BAR

    reg_ready = [0] * N_REGISTERS
    fu_free = [0] * len(UNITS)
    buses: List[set] = [set() for _ in range(n_buses)]
    # Completion-event min-heap over reserved writeback cycles: the
    # cycle floor never decreases, so reservations behind it can be
    # dropped from the per-bus sets (same pruning as the scoreboard).
    bus_heap: List[Tuple[int, int]] = []

    ops = compiled.ops
    n_entries = compiled.n
    pos = 0
    cycle = 0
    last_event = 0
    is_branch = False
    tracking = record is not None
    # Buffer occupancy and flush totals are a pure function of the
    # compiled taken flags and the issue width, pulled from the
    # shared per-trace cache instead of recounted per replay; only
    # the issue-width histogram needs the loop, and runs never
    # exceed the buffer width, so it lives in a flat list.
    t_width = [0] * (units + 1)
    t_run = 0
    t_run_cycle = -1

    while pos < n_entries:
        end = pos + units
        if end > n_entries:
            end = n_entries
        index = pos
        cut = False
        while index < end:
            unit, dest, srcs, is_branch, taken, _v, _vl, _bus, _c = ops[index]
            latency = latencies[unit]

            earliest = cycle
            for src in srcs:
                ready = reg_ready[src]
                if ready > earliest:
                    earliest = ready
            if dest >= 0:
                ready = reg_ready[dest]
                if ready > earliest:
                    earliest = ready
            ready = fu_free[unit]
            if ready > earliest:
                earliest = ready

            if dest >= 0:
                while bus_heap and bus_heap[0][0] <= cycle:
                    done, bus_index = heappop(bus_heap)
                    buses[bus_index].discard(done)
                target = earliest + latency
                if xbar:
                    while True:
                        chosen = -1
                        for bus_index, reserved in enumerate(buses):
                            if target not in reserved:
                                chosen = bus_index
                                break
                        if chosen >= 0:
                            break
                        earliest += 1
                        target += 1
                else:
                    chosen = (index - pos) % n_buses
                    reserved = buses[chosen]
                    while target in reserved:
                        earliest += 1
                        target += 1
                buses[chosen].add(target)
                heappush(bus_heap, (target, chosen))

            cycle = earliest
            complete = cycle + latency
            fu_free[unit] = cycle + 1
            if dest >= 0:
                reg_ready[dest] = complete
            if not is_branch and complete > last_event:
                last_event = complete
            if tracking:
                record.append((
                    cycle,
                    cycle + branch_latency if is_branch else complete,
                ))
            # Issue cycles are globally nondecreasing (the cycle
            # floor never goes back, and every buffer transition
            # strictly advances it), so the per-cycle issue width is
            # a single run-length count over them.
            if cycle == t_run_cycle:
                t_run += 1
            else:
                if t_run:
                    t_width[t_run] += 1
                t_run_cycle = cycle
                t_run = 1
            index += 1

            if is_branch:
                resolve = cycle + branch_latency
                if resolve > last_event:
                    last_event = resolve
                cycle = resolve
                if taken:
                    cut = True
                    break

        pos = index
        if not cut and not is_branch:
            # Full buffer issued, straight-line tail: the refill is
            # overlapped, examinable the cycle after the last issue.
            cycle += 1

    if t_run:
        t_width[t_run] += 1
    occupancy, flushes, flush_cycles = window_stats(compiled, units)
    detail = SimTelemetry(
        instructions=n_entries,
        cycles=max(last_event, 1),
        fu_busy_cycles=_closed_busy(compiled, latencies, branch_latency),
        issue_width={w: c for w, c in enumerate(t_width) if c},
        occupancy=occupancy,
        flushes=flushes,
        flush_cycles=flush_cycles,
    ).to_detail()
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=n_entries,
        cycles=max(last_event, 1),
        detail=detail,
    )


# ----------------------------------------------------------------------
# CDC 6600-style scoreboard (Section 3.3): RAW waits at the units
# ----------------------------------------------------------------------

def simulate_cdc6600_fast(
    machine,
    trace: Trace,
    config: MachineConfig,
    record: Optional[Schedule] = None,
) -> SimulationResult:
    """Fast twin of :meth:`CDC6600Machine.reference_simulate`.

    Single in-order issue with one ready cycle per register and per
    functional unit; the loop is a direct integer transcription of the
    reference recurrence (same max chains, same tie-breaks).
    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("python", "fast_runs")
    table = config.latencies
    latencies = [table.latency(unit) for unit in UNITS]
    branch_latency = config.branch_latency
    holds = machine.fu_holds_until_complete

    reg_ready = [0] * N_REGISTERS
    fu_free = [0] * len(UNITS)
    next_issue = 0
    last_event = 0
    tracking = record is not None

    # Busy spans are mostly closed-form: a non-branch op occupies its
    # unit for ``latency`` cycles plus however long RAW delivery delays
    # execution start (``start - issue``), and a branch for the branch
    # latency exactly -- so the loop only accumulates the start-delay
    # excess and adds the closed form at the end.
    t_extra = [0] * len(UNITS)
    for unit, dest, srcs, is_branch, _t, _v, _vl, _bus, _c in (
        compiled.ops
    ):
        latency = latencies[unit]

        # Issue conditions: in-order slot, unit free, no WAW; a
        # branch additionally reads its sources before resolving.
        earliest = next_issue
        ready = fu_free[unit]
        if ready > earliest:
            earliest = ready
        if dest >= 0:
            waw = reg_ready[dest]
            if waw > earliest:
                earliest = waw
        if is_branch:
            for src in srcs:
                ready = reg_ready[src]
                if ready > earliest:
                    earliest = ready

        issue = earliest

        # Execution begins once the operands arrive at the unit.
        start = issue
        for src in srcs:
            ready = reg_ready[src]
            if ready > start:
                start = ready
        complete = start + latency
        if start > issue:
            # RAW delivery held the unit past its closed-form span.
            # (Branches never take this path: their issue already
            # waited on every source.)
            t_extra[unit] += start - issue

        if is_branch:
            next_issue = issue + branch_latency
            complete = next_issue
            fu_free[unit] = issue + 1
        else:
            next_issue = issue + 1
            if unit == _MEMORY:
                fu_free[unit] = start + 1
            else:
                fu_free[unit] = complete if holds else start + 1
            if dest >= 0:
                reg_ready[dest] = complete

        if complete > last_event:
            last_event = complete
        if tracking:
            record.append((issue, complete))

    busy = _closed_busy(compiled, latencies, branch_latency)
    for u in range(len(UNITS)):
        if t_extra[u]:
            name = _UNIT_NAMES[u]
            busy[name] = busy.get(name, 0) + t_extra[u]
    detail = SimTelemetry(
        instructions=compiled.n,
        cycles=max(last_event, 1),
        fu_busy_cycles=busy,
        issue_width={1: compiled.n},
    ).to_detail()
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=compiled.n,
        cycles=max(last_event, 1),
        detail=detail,
    )


# ----------------------------------------------------------------------
# Tomasulo-style reservation stations (Section 3.3)
# ----------------------------------------------------------------------

def simulate_tomasulo_fast(
    machine,
    trace: Trace,
    config: MachineConfig,
    record: Optional[Schedule] = None,
) -> SimulationResult:
    """Fast twin of :meth:`TomasuloMachine.reference_simulate`.

    Stations live in flat per-seq arrays, operand tags are packed
    integers (``instance * N_REGISTERS + register``), and the per-cycle
    outer loop jumps straight to the next cycle anything can happen:
    the wakeup heap's root, the station release that unblocks issue, a
    known branch-operand availability, or branch resolution.  Inside an
    active cycle the start/issue order matches the reference exactly.
    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("python", "fast_runs")
    table = config.latencies
    latencies = [table.latency(unit) for unit in UNITS]
    branch_latency = config.branch_latency
    capacity = machine.stations_per_unit
    cdb_width = machine.cdb_width

    ops = compiled.ops
    n_entries = compiled.n
    n_regs = N_REGISTERS
    n_units = len(UNITS)

    latest_instance = [0] * n_regs
    tag_avail: Dict[int, int] = {}
    waiting_on: Dict[int, List[int]] = {}

    st_unit = [0] * n_entries
    st_latency = [0] * n_entries
    st_dest = [-1] * n_entries
    st_pending = [0] * n_entries
    st_ready = [0] * n_entries

    busy_count = [0] * n_units
    release_heaps: List[List[int]] = [[] for _ in range(n_units)]
    fu_next = [0] * n_units
    ready_heap: List[Tuple[int, int]] = []
    cdb_used: Dict[int, int] = {}

    pos = 0
    issue_resume = 0
    cycle = 0
    in_flight = 0
    last_event = 0
    tracking = record is not None
    if tracking:
        issue_at = [0] * n_entries
        complete_at = [0] * n_entries
    # Stall attribution is per-issue, not per-cycle: between two
    # consecutive issues nothing changes `issue_resume` (only an
    # issuing branch moves it), so the no-issue gap in front of an
    # instruction splits in closed form -- cycles below the resume
    # point stall on the branch, the rest on full stations (or all
    # on the branch itself when the head *is* one, waiting for its
    # operand).  Busy spans accumulate as `release - issue` split
    # into two signed updates, saving the per-seq issue-cycle array.
    t_branch_stalls = 0
    t_full_stalls = 0
    t_busy = [0] * n_units
    t_prev_issue = -1

    while pos < n_entries or in_flight > 0:
        # ---- start ready operations on their (pipelined) units -------
        eligible: List[Tuple[int, int]] = []
        while ready_heap and ready_heap[0][0] <= cycle:
            eligible.append(heappop(ready_heap))
        if len(eligible) > 1:
            eligible.sort(key=lambda item: item[1])  # oldest first
        for ready_cycle, seq in eligible:
            unit = st_unit[seq]
            unit_free = fu_next[unit]
            if unit_free > cycle:
                heappush(
                    ready_heap,
                    (ready_cycle if ready_cycle > unit_free else unit_free,
                     seq),
                )
                continue
            fu_next[unit] = cycle + 1
            finish = cycle + st_latency[seq]
            dest_tag = st_dest[seq]
            if dest_tag >= 0:
                broadcast = finish
                while cdb_used.get(broadcast, 0) >= cdb_width:
                    broadcast += 1
                cdb_used[broadcast] = cdb_used.get(broadcast, 0) + 1
                tag_avail[dest_tag] = broadcast
                for dep in waiting_on.pop(dest_tag, ()):
                    pending = st_pending[dep] - 1
                    st_pending[dep] = pending
                    if broadcast > st_ready[dep]:
                        st_ready[dep] = broadcast
                    if pending == 0:
                        heappush(ready_heap, (st_ready[dep], dep))
                release = broadcast
            else:
                release = finish  # stores need no CDB slot
            heappush(release_heaps[unit], release)
            in_flight -= 1
            if release > last_event:
                last_event = release
            if tracking:
                complete_at[seq] = release
            # Station occupied from dispatch to release -- the
            # ISSUE..COMPLETE window the reference events report
            # (the dispatch cycle was subtracted at issue).
            t_busy[unit] += release

        # ---- issue: one instruction per cycle ------------------------
        if pos < n_entries and cycle >= issue_resume:
            op = ops[pos]
            if op[3]:  # branch
                a0_ready = 0
                if op[8]:  # conditional: reads the tested register
                    src = op[2][0]
                    tag = latest_instance[src] * n_regs + src
                    a0_ready = (
                        0 if tag < n_regs else tag_avail.get(tag, _UNKNOWN)
                    )
                if a0_ready != _UNKNOWN and a0_ready <= cycle:
                    resolve = cycle + branch_latency
                    # Every no-issue cycle in front of a branch --
                    # shadow or operand wait -- stalls on the branch.
                    gap = cycle - t_prev_issue - 1
                    if gap > 0:
                        t_branch_stalls += gap
                    t_prev_issue = cycle
                    issue_resume = resolve
                    if resolve > last_event:
                        last_event = resolve
                    if tracking:
                        issue_at[pos] = cycle
                        complete_at[pos] = resolve
                    pos += 1
            else:
                unit = op[0]
                heap_u = release_heaps[unit]
                count = busy_count[unit]
                while heap_u and heap_u[0] <= cycle:
                    heappop(heap_u)
                    count -= 1
                busy_count[unit] = count
                if count < capacity:
                    dest = op[1]
                    srcs = op[2]
                    src_tags = [
                        latest_instance[src] * n_regs + src for src in srcs
                    ]
                    if dest >= 0:
                        instance = latest_instance[dest] + 1
                        latest_instance[dest] = instance
                        st_dest[pos] = instance * n_regs + dest
                    pending = 0
                    ready = cycle + 1  # earliest start: next cycle
                    for tag in src_tags:
                        avail = (
                            0 if tag < n_regs
                            else tag_avail.get(tag, _UNKNOWN)
                        )
                        if avail == _UNKNOWN:
                            pending += 1
                            waiting_on.setdefault(tag, []).append(pos)
                        elif avail > ready:
                            ready = avail
                    st_unit[pos] = unit
                    st_latency[pos] = latencies[unit]
                    st_pending[pos] = pending
                    st_ready[pos] = ready
                    busy_count[unit] = count + 1
                    in_flight += 1
                    if tracking:
                        issue_at[pos] = cycle
                    t_busy[unit] -= cycle
                    gap = cycle - t_prev_issue - 1
                    if gap > 0:
                        blocked = issue_resume - t_prev_issue - 1
                        if blocked > gap:
                            blocked = gap
                        elif blocked < 0:
                            blocked = 0
                        t_branch_stalls += blocked
                        t_full_stalls += gap - blocked
                    t_prev_issue = cycle
                    if pending == 0:
                        heappush(ready_heap, (ready, pos))
                    pos += 1

        # ---- advance: next cycle anything can happen ------------------
        nxt = -1
        if ready_heap:
            c = ready_heap[0][0]
            if c <= cycle:
                c = cycle + 1
            nxt = c
        if pos < n_entries:
            cand = issue_resume if issue_resume > cycle + 1 else cycle + 1
            op = ops[pos]
            if op[3]:
                if op[8]:
                    src = op[2][0]
                    tag = latest_instance[src] * n_regs + src
                    avail = (
                        0 if tag < n_regs else tag_avail.get(tag, _UNKNOWN)
                    )
                    if avail == _UNKNOWN:
                        cand = -1  # producer must dispatch first
                    elif avail > cand:
                        cand = avail
            else:
                unit = op[0]
                heap_u = release_heaps[unit]
                count = busy_count[unit]
                while heap_u and heap_u[0] <= cycle:
                    heappop(heap_u)
                    count -= 1
                busy_count[unit] = count
                if count >= capacity and heap_u and heap_u[0] > cand:
                    cand = heap_u[0]
            if cand >= 0 and (nxt < 0 or cand < nxt):
                nxt = cand
        cycle = nxt if nxt > cycle else cycle + 1
        if cycle > _MAX_CYCLES:  # pragma: no cover - bug trap
            raise RuntimeError("Tomasulo simulation failed to progress")

    if tracking:
        record.extend(zip(issue_at, complete_at))
    detail = SimTelemetry(
        instructions=n_entries,
        cycles=max(last_event, 1),
        stall_cycles={
            "BRANCH": t_branch_stalls,
            "STATIONS_FULL": t_full_stalls,
        },
        fu_busy_cycles={
            _UNIT_NAMES[u]: t_busy[u]
            for u in range(n_units)
            if t_busy[u]
        },
        issue_width={1: n_entries},
    ).to_detail()
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=n_entries,
        cycles=max(last_event, 1),
        detail=detail,
    )


# ----------------------------------------------------------------------
# RUU dependency resolution (Section 5.3)
# ----------------------------------------------------------------------

#: Branch-wait code of a non-branch op in :func:`ruu_plan`'s table.
_NOT_BRANCH = -2

#: Result cycle of an RUU entry not dispatched yet: later than any cycle,
#: so the in-order commit test is one comparison.
_UNDISPATCHED = 1 << 62

class RUURun(NamedTuple):
    """One RUU replay: what :func:`ruu_replay` hands its callers.

    ``peak`` is the most RUU entries ever live at once.  A run whose peak
    stays below its RUU size never found the RUU full, so every RUU size
    above the peak replays it cycle for cycle (the size is only ever
    compared against the live count); the batch sweep reuses such runs.
    """

    cycles: int
    detail: Dict[str, float]
    peak: int
    schedule: Optional[Schedule]


@per_trace
def ruu_plan(compiled) -> tuple:
    """The configuration-independent half of an RUU replay, once per trace
    (memoised on the compiled trace).

    Register instances make every operand tag a function of program
    order alone: a source names the latest earlier non-branch write of
    its register, whatever the RUU size, issue width, bus organisation or
    latencies.  The plan resolves those tags once into dense seq indices:

    ``units``
        functional-unit index per seq;
    ``producers``
        per non-branch seq, the distinct earlier seqs whose results it
        reads (initial register contents are ready at cycle 0 and drop
        out);
    ``consumers``
        per seq, the distinct later non-branch seqs that read its result,
        ascending -- the static form of the reference's ``waiting_on``
        lists: when a producer dispatches, exactly its consumers already
        issued (seq below the issue front) are still waiting on it;
    ``branch_wait``
        per seq, :data:`_NOT_BRANCH` for a non-branch op, otherwise the
        seq producing the A0 instance a conditional branch tests, or -1
        when the branch waits on nothing (unconditional, or A0 never
        written) -- the branch cut at which issue stops;
    ``ring``
        the non-branch seqs in program order: the RUU entries, so the
        live entries are always ``ring[head:tail]``.
    """
    n = compiled.n
    writer = [-1] * N_REGISTERS  # register -> seq of its latest write
    units = [0] * n
    producers: List[Tuple[int, ...]] = [()] * n
    consumers: List[List[int]] = [[] for _ in range(n)]
    branch_wait = [_NOT_BRANCH] * n
    ring: List[int] = []
    for seq, (unit, dest, srcs, is_branch, _t, _v, _vl, _b, is_cond) in (
        enumerate(compiled.ops)
    ):
        units[seq] = unit
        if is_branch:
            branch_wait[seq] = writer[_A0] if is_cond else -1
            continue
        ring.append(seq)
        reads = []
        for src in srcs:
            producer = writer[src]
            if producer >= 0 and producer not in reads:
                reads.append(producer)
                consumers[producer].append(seq)
        producers[seq] = tuple(reads)
        if dest >= 0:
            writer[dest] = seq

    return (
        tuple(units),
        tuple(producers),
        tuple(tuple(c) for c in consumers),
        tuple(branch_wait),
        tuple(ring),
    )


def _ruu_key(
    base, cycle, pos, head, tail, ring, result, pending, ready, heap, stride,
    issue_resume, memory_next,
) -> tuple:
    """The RUU loop's state at a body boundary *base*, relative to
    *cycle* and *base*: every value the loop will read again.

    Per live entry its offset and one state: dispatched (result cycle),
    waiting in the wakeup heap (ready cycle), ready but blocked, or
    pending on N undispatched producers (ready floor so far).  Cycles
    are clamped at the current one (-1 for a result already back, 0
    otherwise): the loop only compares them against cycles from here
    on.  The return-path uses from this cycle on are the live results'
    return cycles, committed producers are all usable by now, and
    functional-unit claims never outlive their cycle, so none of them
    needs a field of its own.
    """
    heaped = {h % stride: h // stride - cycle for h in heap}
    flat = [pos - base, issue_resume - cycle if issue_resume > cycle else 0,
            memory_next]
    for index in range(head, tail):
        seq = ring[index]
        back = result[seq]
        if back != _UNDISPATCHED:
            flat += (seq - base, 0, back - cycle if back >= cycle else -1)
            continue
        at = heaped.get(seq)
        if at is not None:
            flat += (seq - base, 1, at if at > 0 else 0)
        elif pending[seq]:
            at = ready[seq] - cycle
            flat += (seq - base, 2 + pending[seq], at if at > 0 else 0)
        else:
            flat += (seq - base, 2, 0)  # ready, blocked last cycle
    return tuple(flat)


def _credit(counts, before, repeats) -> None:
    """Add *repeats* more periods to counters that read *before* one
    period ago."""
    for index, count in enumerate(before):
        if counts[index] != count:
            counts[index] += repeats * (counts[index] - count)


def _ruu_shift(low, high, skip, lag, result, avail, pending, ready) -> None:
    """Copy the per-seq state of seqs ``[low, high)`` *skip* seqs and
    *lag* cycles ahead, youngest first: a jump shorter than the window
    overlaps it, and each source must be read before it is overwritten."""
    for seq in range(high - 1, low - 1, -1):
        to = seq + skip
        back = result[seq]
        result[to] = back if back == _UNDISPATCHED else back + lag
        usable = avail[seq]
        avail[to] = usable if usable == _UNKNOWN else usable + lag
        pending[to] = pending[seq]
        ready[to] = ready[seq] + lag


def ruu_replay(
    compiled, machine, config: MachineConfig, tracking: bool = False
) -> RUURun:
    """The RUU fast loop: one replay of *compiled* on *machine*/*config*.

    Every RUU replay runs this one loop -- :func:`simulate_ruu_fast`
    once per spec, the batch RUU kernel once per distinct replay of a
    sweep.  It walks the reference's commit /
    dispatch / issue phase order over the shared :func:`ruu_plan`, so
    renaming costs tuple reads instead of tag dictionaries, and jumps
    over idle cycles (crediting occupancy and stall statistics for the
    skipped span in closed form, so ``detail`` stays bit-identical).  The
    next interesting cycle is the minimum of: the head entry's result
    return (commit), the wakeup heap's root (dispatch), branch
    resolution, and a known branch-operand availability (issue).

    The wakeup heap holds ``ready * stride + seq`` integers, so it
    orders by (ready cycle, seq) exactly like the reference's tuples.
    Occupancy and issue-width counts share one flat histogram indexed
    ``live * (issue_units + 1) + issued``; the occupancy mean, the
    telemetry histograms and the run's peak are all read off it.  Busy
    spans accumulate as ``commit - issue`` in two signed updates.

    Inside the trace's periodic regions the loop fast-forwards (see the
    module docstring): :func:`_ruu_key` is its state at a body boundary,
    and a repeated key skips whole periods in closed form.
    """
    units, producers, consumers, branch_wait, ring = ruu_plan(compiled)
    table = config.latencies
    latencies = [table.latency(unit) for unit in UNITS]
    branch_latency = config.branch_latency
    width = machine.path_width
    issue_units = machine.issue_units
    ruu_size = machine.ruu_size
    delay = 0 if machine.bypass else 1
    ordered_memory = machine.ordered_memory
    fu_copies = machine.fu_copies

    n_entries = compiled.n
    n_units = len(UNITS)
    stride = n_entries or 1

    avail = [_UNKNOWN] * n_entries  # cycle a result is usable by readers
    result = [_UNDISPATCHED] * n_entries  # cycle a result is back in the RUU
    pending = [0] * n_entries
    ready = [0] * n_entries
    heap: List[int] = []  # entries whose operands are not ready yet
    eligible: List[int] = []  # ready entries, oldest first, blocked so far
    ret_used: Dict[int, int] = {}  # FU->RUU return-path uses per cycle
    fu_cycle = [_UNKNOWN] * n_units
    fu_used = [0] * n_units
    if ordered_memory:
        memory_seqs = [seq for seq in ring if units[seq] == _MEMORY]
        memory_index = 0

    busy = [0] * n_units
    h_stride = issue_units + 1
    hist = [0] * ((min(ruu_size, len(ring)) + 1) * h_stride)
    full_stall_cycles = 0
    branch_stall_cycles = 0

    pos = 0  # next seq to issue
    head = 0  # ring index of the oldest uncommitted entry
    tail = 0  # ring index one past the youngest issued entry
    issue_resume = 0  # also the latest branch resolution so far
    cycle = 0
    last_commit = 0
    if tracking:
        issue_at = [0] * n_entries
        complete_at = [0] * n_entries

    # Steady-state fast-forward over the trace's periodic regions: at
    # each body boundary (the first cycle whose issue front has crossed
    # one) a cheap signature gates the full relative state key; a key
    # seen at an earlier boundary repeats every later period exactly.
    regions = compiled.regions
    region = 0
    next_check = regions[0][0] + regions[0][1] if regions else n_entries + 1
    seen: Dict[tuple, tuple] = {}
    signatures = set()
    boundary_cycle = 0

    while True:
        if cycle > _MAX_CYCLES:  # pragma: no cover - bug trap
            raise RuntimeError("RUU simulation failed to make progress")

        if pos >= next_check:
            start, period, end = regions[region]
            base = pos - (pos - start) % period
            # No later boundary can jump: leave the region after this one.
            leave = base + 2 * period >= end
            if pos + period < end and (head == tail or ring[head] >= start):
                signature = (pos - base, tail - head, cycle - boundary_cycle)
                boundary_cycle = cycle
                if signature in signatures:
                    key = _ruu_key(
                        base, cycle, pos, head, tail, ring, result, pending,
                        ready, heap, stride, issue_resume,
                        memory_seqs[memory_index] - base
                        if ordered_memory and memory_index < len(memory_seqs)
                        else -1,
                    )
                    snapshot = seen.get(key)
                    if snapshot is None:
                        seen[key] = (
                            cycle, pos, head, issue_resume,
                            memory_index if ordered_memory else 0,
                            busy[:], hist[:], full_stall_cycles,
                            branch_stall_cycles,
                        )
                    else:
                        (cycle0, pos0, head0, resume0, memory0,
                         busy0, hist0, full0, branch0) = snapshot
                        span = pos - pos0  # seqs per state period
                        repeats = (end - 1 - pos) // span
                        if repeats > 0:
                            gap = cycle - cycle0
                            entries = head - head0  # ring entries per period
                            skip = repeats * span
                            lag = repeats * gap
                            moved = repeats * entries
                            low = pos - period
                            if head < tail and ring[head] < low:
                                low = ring[head]
                            _ruu_shift(low, pos, skip, lag, result, avail,
                                       pending, ready)
                            if tracking:
                                for seq in range(pos, pos + skip):
                                    issue_at[seq] = issue_at[seq - span] + gap
                                    if branch_wait[seq] != _NOT_BRANCH:
                                        complete_at[seq] = (
                                            complete_at[seq - span] + gap
                                        )
                                for index in range(head, head + moved):
                                    complete_at[ring[index]] = (
                                        complete_at[ring[index - entries]]
                                        + gap
                                    )
                            heap = [h + lag * stride + skip for h in heap]
                            eligible = [seq + skip for seq in eligible]
                            _credit(busy, busy0, repeats)
                            _credit(hist, hist0, repeats)
                            full_stall_cycles += repeats * (
                                full_stall_cycles - full0
                            )
                            branch_stall_cycles += repeats * (
                                branch_stall_cycles - branch0
                            )
                            # The last commit needs no shift: whatever
                            # is still live, or left to issue, commits or
                            # resolves later than any skipped commit.
                            if issue_resume != resume0:
                                issue_resume += lag
                            if ordered_memory:
                                memory_index += repeats * (
                                    memory_index - memory0
                                )
                            pos += skip
                            head += moved
                            tail += moved
                            cycle += lag
                            # Return-path uses from this cycle on are
                            # exactly the live results' return cycles.
                            ret_used = {}
                            for index in range(head, tail):
                                back = result[ring[index]]
                                if back != _UNDISPATCHED and back >= cycle:
                                    ret_used[back] = ret_used.get(back, 0) + 1
                            count_run("python", "skipped_instructions", skip)
                            leave = True
                signatures.add(signature)
            next_check = base + period
            if leave:
                region += 1
                seen = {}
                signatures = set()
                next_check = (
                    regions[region][0] + regions[region][1]
                    if region < len(regions) else n_entries + 1
                )

        # ---- commit: retire in order from the head -------------------
        if head < tail:
            stop = head + width
            if stop > tail:
                stop = tail
            while head < stop:
                seq = ring[head]
                if result[seq] > cycle:
                    break
                head += 1
                # Every later return probe is at cycle + latency or
                # later (latencies are >= 1), so this return cycle is
                # never read again: the dict stays as small as the RUU.
                ret_used.pop(result[seq], None)
                # RUU entry occupied from issue to commit -- the
                # ISSUE..COMPLETE window of the reference events.
                busy[units[seq]] += cycle
                if tracking:
                    complete_at[seq] = cycle
                last_commit = cycle

        # ---- dispatch: oldest ready entries, up to the path width ----
        limit = (cycle + 1) * stride
        if heap and heap[0] < limit:
            while heap and heap[0] < limit:
                eligible.append(heappop(heap) % stride)
            if len(eligible) > 1:
                eligible.sort()  # oldest first
        if eligible:
            dispatches = 0
            waiting = []
            for seq in eligible:
                if dispatches == width:
                    waiting.extend(eligible[dispatches + len(waiting):])
                    break
                unit = units[seq]
                if (
                    (fu_cycle[unit] == cycle and fu_used[unit] >= fu_copies)
                    or (
                        ordered_memory
                        and unit == _MEMORY
                        and seq != memory_seqs[memory_index]
                    )
                ):
                    waiting.append(seq)
                    continue
                dispatches += 1
                if fu_cycle[unit] == cycle:
                    fu_used[unit] += 1
                else:
                    fu_cycle[unit] = cycle
                    fu_used[unit] = 1
                if ordered_memory and unit == _MEMORY:
                    memory_index += 1
                back = cycle + latencies[unit]
                used = ret_used.get(back, 0)
                while used >= width:
                    back += 1
                    used = ret_used.get(back, 0)
                ret_used[back] = used + 1
                result[seq] = back
                usable = back + delay
                avail[seq] = usable
                for dep in consumers[seq]:
                    if dep >= pos:
                        break  # not issued yet: reads avail at issue
                    left = pending[dep] - 1
                    pending[dep] = left
                    if usable > ready[dep]:
                        ready[dep] = usable
                    if not left:
                        heappush(heap, ready[dep] * stride + dep)
            eligible = waiting

        # ---- issue: up to N instructions, in program order -----------
        start = pos
        if cycle >= issue_resume:
            # Issue width and free RUU entries bound this cycle's issues
            # (a branch also needs a free entry, and ends the cycle).
            room = ruu_size - tail + head
            stop = pos + (issue_units if issue_units < room else room)
            if stop > n_entries:
                stop = n_entries
            while pos < stop:
                wait = branch_wait[pos]
                if wait != _NOT_BRANCH:
                    if wait >= 0:
                        operand = avail[wait]
                        if operand == _UNKNOWN or operand > cycle:
                            break  # branch waits at the issue stage
                    issue_resume = cycle + branch_latency
                    if tracking:
                        issue_at[pos] = cycle
                        complete_at[pos] = issue_resume
                    pos += 1
                    break  # nothing issues behind an unresolved branch

                waits = 0
                at = cycle
                for producer in producers[pos]:
                    operand = avail[producer]
                    if operand == _UNKNOWN:
                        waits += 1
                    elif operand > at:
                        at = operand
                busy[units[pos]] -= cycle
                if tracking:
                    issue_at[pos] = cycle
                if waits:
                    pending[pos] = waits
                    ready[pos] = at
                else:
                    heappush(heap, at * stride + pos)
                tail += 1
                pos += 1

        issued = pos - start
        live = tail - head
        hist[live * h_stride + issued] += 1
        if pos < n_entries and issued == 0:
            if cycle < issue_resume:
                branch_stall_cycles += 1
            elif live >= ruu_size:
                full_stall_cycles += 1

        if pos >= n_entries and live == 0:
            cycle += 1
            break

        # ---- advance: next cycle anything can happen ------------------
        if eligible:
            cycle += 1  # ready entries blocked this cycle retry the next
            continue
        nxt = -1
        if live > 0:
            back = result[ring[head]]
            if back != _UNDISPATCHED:
                nxt = back if back > cycle else cycle + 1
        if heap:
            c = heap[0] // stride
            if c <= cycle:
                c = cycle + 1
            if nxt < 0 or c < nxt:
                nxt = c
        if pos < n_entries and live < ruu_size:
            cand = issue_resume if issue_resume > cycle + 1 else cycle + 1
            wait = branch_wait[pos]
            if wait >= 0:
                operand = avail[wait]
                if operand == _UNKNOWN:
                    cand = -1  # A0 producer must dispatch first
                elif operand > cand:
                    cand = operand
            if cand >= 0 and (nxt < 0 or cand < nxt):
                nxt = cand
        if nxt < 0:  # pragma: no cover - deadlock trap advances
            nxt = cycle + 1

        # Credit the skipped idle cycles to the statistics exactly as
        # the reference's cycle-by-cycle walk would have.
        idle = nxt - cycle - 1
        if idle > 0:
            hist[live * h_stride] += idle
            if pos < n_entries:
                blocked = issue_resume - cycle - 1
                if blocked > idle:
                    blocked = idle
                elif blocked < 0:
                    blocked = 0
                branch_stall_cycles += blocked
                if live >= ruu_size:
                    full_stall_cycles += idle - blocked
        cycle = nxt

    occupancy_sum = 0
    peak = 0
    t_width: Dict[int, int] = {}
    t_occupancy: Dict[int, int] = {}
    for index, count in enumerate(hist):
        if count:
            level, issued = divmod(index, h_stride)
            occupancy_sum += level * count
            peak = level
            t_occupancy[level] = t_occupancy.get(level, 0) + count
            if issued:
                t_width[issued] = t_width.get(issued, 0) + count
    # Branches never commit; their resolution still bounds the machine's
    # finish time (a trace ending in a branch ends when it resolves).
    cycles = max(last_commit, issue_resume, 1)
    detail = {
        "ruu_occupancy_mean": occupancy_sum / max(cycle, 1),
        "ruu_full_stall_cycles": float(full_stall_cycles),
        "branch_stall_cycles": float(branch_stall_cycles),
    }
    detail.update(SimTelemetry(
        instructions=n_entries,
        cycles=cycles,
        stall_cycles={
            "BRANCH": branch_stall_cycles,
            "RUU_FULL": full_stall_cycles,
        },
        fu_busy_cycles={
            _UNIT_NAMES[u]: busy[u] for u in range(n_units) if busy[u]
        },
        issue_width=t_width,
        occupancy=t_occupancy,
    ).to_detail())
    schedule = list(zip(issue_at, complete_at)) if tracking else None
    return RUURun(cycles, detail, peak, schedule)


def simulate_ruu_fast(
    machine,
    trace: Trace,
    config: MachineConfig,
    record: Optional[Schedule] = None,
) -> SimulationResult:
    """Fast twin of :meth:`RUUMachine.reference_simulate`: one
    :func:`ruu_replay` over the trace's memoised :func:`ruu_plan`.

    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("python", "fast_runs")
    run = ruu_replay(compiled, machine, config, record is not None)
    if record is not None:
        record.extend(run.schedule)
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=compiled.n,
        cycles=run.cycles,
        detail=run.detail,
    )


# ----------------------------------------------------------------------
# Out-of-order multiple issue (Section 5.2): shared hazard bitmasks
# ----------------------------------------------------------------------

#: Cap on buffer-drain scan passes, mirroring the reference's guard.
_MAX_BUFFER_CYCLES = 100_000

#: Drain-variant tags for out-of-order buffer records (see
#: :func:`_ooo_plan`).
_SINGLE, _INDEP, _NOBRANCH, _GENERAL = 0, 1, 2, 3

@per_trace
def _ooo_plan(compiled, units: int, enforce_war: bool) -> List[tuple]:
    """Decode every fetch buffer of *compiled* once for an out-of-order
    machine of the given issue width and WAR policy.

    The buffer cut (after the first taken branch) and the intra-buffer
    hazard structure are config-independent, so the plan is shared by
    every sweep member and memoised on the compiled trace across sweep
    and per-spec calls.  Records are ``(pos, tag, payload, full_mask)``;
    payload is the op tuple for singles, else a tuple of per-slot
    tuples unpacked by the drains in :func:`ooo_replay`.
    """
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
    return buffers


def _ooo_key(cycle, last_event, regs, fuf, buses, horizon) -> tuple:
    """The out-of-order loop's state at a buffer that starts a body,
    relative to *cycle*: register and unit ready cycles and the result
    bus reservations from this cycle on (every probe targets a later
    cycle), clamped at the current cycle.  The last event is clamped at
    -1, so two equal keys prove the period raised it."""
    return (
        last_event - cycle if last_event >= cycle else -1,
        tuple([r - cycle if r > cycle else 0 for r in regs]),
        tuple([r - cycle if r > cycle else 0 for r in fuf]),
        tuple(
            tuple([at - cycle for at in range(cycle, cycle + horizon)
                   if at in bus])
            for bus in buses
        ),
    )


def _ooo_jump(cycle, lag, regs, fuf, buses, horizon) -> None:
    """Move the out-of-order state that is still ahead of *cycle*
    *lag* cycles later.  Bus reservations stay grow-only, like the
    drains': the old ones remain (a real run keeps them too), and no
    probe reaches back to them."""
    for r, ready in enumerate(regs):
        if ready > cycle:
            regs[r] = ready + lag
    for u, ready in enumerate(fuf):
        if ready > cycle:
            fuf[u] = ready + lag
    for bus in buses:
        bus.update([
            at + lag for at in range(cycle, cycle + horizon) if at in bus
        ])


def _shift_schedule(issue_at, complete_at, pos, skip, span, gap) -> None:
    """Fill the schedule of seqs ``[pos, pos + skip)`` by shifting the
    period *span* seqs and *gap* cycles back, oldest first."""
    for seq in range(pos, pos + skip):
        issue_at[seq] = issue_at[seq - span] + gap
        complete_at[seq] = complete_at[seq - span] + gap


def ooo_replay(compiled, group) -> List[SimulationResult]:
    """The out-of-order kernel: replay *compiled* once per member of
    *group* (``SweepItem`` members of one issue width and WAR policy).

    Every out-of-order replay runs this one kernel -- the ``ooo`` entry
    of :data:`FAMILY_LOOPS` as a one-member group, the batch sweep once
    per (width, WAR) group.  It runs in two phases.  Phase 1
    (:func:`_ooo_plan`, cached per compiled trace) decodes every fetch
    buffer once -- the buffer cut (after the first taken branch) and the
    intra-buffer hazard structure are config-independent -- into
    per-slot hazard bitmasks, so each scan tests ``dep_mask & unissued``
    / ``branches_before & unissued`` instead of walking earlier slots
    each cycle, and tags each buffer with the cheapest drain that
    reproduces the reference:

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

    Inside the trace's periodic regions each member's replay
    fast-forwards (see the module docstring): :func:`_ooo_key` is its
    state at a buffer that starts a body, and a repeated key skips whole
    periods of buffers in closed form.
    """
    units = group[0].simulator.issue_units
    enforce_war = group[0].simulator.enforce_war
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

    # Buffer occupancy and taken-branch flushes depend only on the
    # taken flags (shared per-trace cache); single-slot buffers always
    # issue alone, so their width-1 contribution is one count, not one
    # dict update per buffer per spec.
    t_occ, t_flushes, t_flush_cycles = window_stats(compiled, units)
    t_singles = sum(1 for _pos, tag, _p, _fm in buffers if tag == _SINGLE)
    t_details: List[Dict[str, float]] = [{}] * K

    # ------------------------------------------------------------------
    # Phase 2: replay the records once per sweep member.
    # ------------------------------------------------------------------
    n_units = len(UNITS)
    n_entries = compiled.n
    regions = compiled.regions
    positions = [record[0] for record in buffers] if regions else None
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
        # Steady-state fast-forward, as in ruu_replay: at each buffer that
        # starts a body, a cheap signature gates the full relative state.
        # The buffers from any body start on are the same shifted (no
        # rename plan here), so the first body is already a boundary.
        region = 0
        next_check = regions[0][0] if regions else n_entries
        seen: Dict[tuple, tuple] = {}
        signatures = set()
        boundary_cycle = 0
        horizon = max(latencies) + 1  # bus reservations end before this

        records = iter(buffers)
        for pos, tag, payload, full_mask in records:
            if pos >= next_check:
                start, period, end = regions[region]
                base = pos - (pos - start) % period
                # No later boundary can jump: leave the region after this.
                leave = base + 2 * period >= end
                if pos == base and pos + period < end:
                    signature = (
                        cycle - boundary_cycle,
                        last_event - cycle if last_event > cycle else 0,
                    )
                    boundary_cycle = cycle
                    if signature in signatures:
                        key = _ooo_key(cycle, last_event, regs, fuf, buses_k,
                                       horizon)
                        snapshot = seen.get(key)
                        if snapshot is None:
                            seen[key] = (cycle, pos, last_event, t_width[:])
                        else:
                            cycle0, pos0, event0, width0 = snapshot
                            span = pos - pos0  # seqs per state period
                            repeats = (end - 1 - pos) // span
                            skip = repeats * span
                            target = bisect_left(positions, pos + skip)
                            if repeats > 0 and target < len(positions) and (
                                positions[target] == pos + skip
                            ):
                                gap = cycle - cycle0
                                if track:
                                    _shift_schedule(issue_k, complete_k, pos,
                                                    skip, span, gap)
                                _ooo_jump(cycle, repeats * gap, regs, fuf,
                                          buses_k, horizon)
                                _credit(t_width, width0, repeats)
                                if last_event != event0:
                                    last_event += repeats * gap
                                cycle += repeats * gap
                                count_run(
                                    "python", "skipped_instructions", skip
                                )
                                pos, tag, payload, full_mask = next(islice(
                                    records,
                                    target - bisect_left(positions, pos) - 1,
                                    None,
                                ))
                                leave = True
                    signatures.add(signature)
                next_check = base + period
                if leave:
                    region += 1
                    seen = {}
                    signatures = set()
                    next_check = (
                        regions[region][0] if region < len(regions)
                        else n_entries
                    )

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
                    t_cs_append(c)
                    if track:
                        issue_k[pos + slot] = c
                        complete_k[pos + slot] = complete
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


def _ooo_member(
    machine,
    trace: Trace,
    config: MachineConfig,
    record: Optional[Schedule] = None,
) -> SimulationResult:
    """The ``ooo`` entry of :data:`FAMILY_LOOPS`: a one-member
    :func:`ooo_replay`, so a single out-of-order replay runs the sweep
    kernel (and shares its buffer plan, memoised on the compiled
    trace)."""
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("python", "fast_runs")
    return ooo_replay(compiled, [SweepItem(machine, config, record)])[0]


# ----------------------------------------------------------------------
# Speculative window machine (branch + value prediction limit study)
# ----------------------------------------------------------------------

#: Functional-unit indices eligible for value prediction, mirroring
#: :data:`repro.core.spec.VP_UNITS` (resolved by name to avoid importing
#: the machine module from its own dispatch target).
_VP_UNIT_IDS = frozenset(
    index for index, unit in enumerate(UNITS)
    if unit.name in ("FP_MULTIPLY", "FP_RECIPROCAL")
)


def simulate_spec_fast(
    machine,
    trace: Trace,
    config: MachineConfig,
    record: Optional[Schedule] = None,
) -> SimulationResult:
    """Fast twin of :meth:`SpecMachine.reference_simulate`.

    The speculative machine is contention-free past the issue stage, so
    every entry's result cycle is fixed analytically the moment it
    issues (``max(issue + 1, source avails) + latency``) -- no dispatch
    phase, no ready heap.  What remains cycle-accurate is the commit /
    issue walk (window gate, issue width, branch resume, in-order
    width-limited commit), and the outer loop jumps over idle cycles
    crediting occupancy and stall statistics in closed form, exactly
    like :func:`simulate_ruu_fast`.

    Unlike the RUU loop, predictors *are* modelled here: the loop
    instantiates the machine's real predictor object and replays it in
    program order (predictors are deterministic), so prediction accuracy
    and per-branch outcomes are bit-identical to the reference by
    sharing the implementation rather than by reimplementing it.  The
    static branch attributes the compiled IR does not carry
    (``backward``, ``static_index``) are read from ``trace.entries`` at
    branch positions only.

    Schedule records: non-branch entries report ``(issue, commit)``
    matching the reference's ISSUE/COMPLETE events; branches report
    ``(issue, resolution)`` where resolution is the cycle correct-path
    issue resumed (issue + 1 for a predicted-correct or decode-redirected
    branch, the full recovery window after a mispredict, issue + branch
    latency with prediction off).
    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("python", "fast_runs")
    table = config.latencies
    latencies = [table.latency(unit) for unit in UNITS]
    branch_latency = config.branch_latency
    width = machine.path_width
    issue_units = machine.issue_units
    window = machine.window
    recovery_window = branch_latency + machine.recovery_penalty
    predictor = (
        machine.predictor_factory() if machine.predictor_factory else None
    )
    predicted_correct: Dict[int, bool] = {}
    vp_warmup = machine.vp_warmup
    value_penalty = machine.value_penalty
    vp_seen: Dict[int, int] = {}
    vp_hits = 0
    vp_misses = 0
    flushes = 0
    flush_cycles = 0

    ops = compiled.ops
    entries = trace.entries
    n_entries = compiled.n
    n_regs = N_REGISTERS
    n_units = len(UNITS)

    latest_instance = [0] * n_regs
    tag_avail: Dict[int, int] = {}

    ent_unit = [0] * n_entries
    ent_result = [0] * n_entries

    ring: List[int] = []  # program-ordered live entries (seqs)
    head = 0
    live = 0

    occupancy_sum = 0
    full_stall_cycles = 0
    branch_stall_cycles = 0

    pos = 0
    issue_resume = 0
    cycle = 0
    last_commit = 0
    tracking = record is not None
    if tracking:
        issue_at = [0] * n_entries
        complete_at = [0] * n_entries
    t_busy = [0] * n_units
    t_stride = issue_units + 1
    t_hist = [0] * ((window + 1) * t_stride)

    while True:
        if cycle > _MAX_CYCLES:  # pragma: no cover - bug trap
            raise RuntimeError("spec simulation failed to make progress")

        # ---- commit: retire in order from the head -------------------
        commits = 0
        while live > 0 and commits < width:
            seq = ring[head]
            if ent_result[seq] > cycle:
                break
            head += 1
            live -= 1
            commits += 1
            if cycle > last_commit:
                last_commit = cycle
            if tracking:
                complete_at[seq] = cycle
            t_busy[ent_unit[seq]] += cycle
        if head > 4096 and head * 2 > len(ring):
            del ring[:head]
            head = 0

        # ---- issue: up to N instructions, in program order -----------
        issued = 0
        while (
            pos < n_entries
            and issued < issue_units
            and cycle >= issue_resume
            and live < window
        ):
            op = ops[pos]
            if op[3]:  # branch
                if predictor is not None:
                    if not op[8]:
                        # Unconditional: decode redirect, one cycle.
                        issue_resume = cycle + 1
                    else:
                        correct = predicted_correct.get(pos)
                        if correct is None:
                            t_entry = entries[pos]
                            taken = bool(op[4])
                            prediction = predictor.predict_outcome(
                                t_entry.static_index,
                                bool(t_entry.backward),
                                taken,
                            )
                            correct = predictor.record(prediction, taken)
                            predictor.update(t_entry.static_index, taken)
                            predicted_correct[pos] = correct
                        if correct:
                            issue_resume = cycle + 1
                        else:
                            a0_tag = latest_instance[_A0] * n_regs + _A0
                            a0_ready = (
                                0 if a0_tag < n_regs else tag_avail[a0_tag]
                            )
                            if a0_ready > cycle:
                                break  # mispredicted branch awaiting A0
                            issue_resume = cycle + recovery_window
                            flushes += 1
                            flush_cycles += recovery_window
                else:
                    if op[8]:
                        a0_tag = latest_instance[_A0] * n_regs + _A0
                        a0_ready = (
                            0 if a0_tag < n_regs else tag_avail[a0_tag]
                        )
                        if a0_ready > cycle:
                            break  # branch waits at the issue stage
                    issue_resume = cycle + branch_latency
                if issue_resume > last_commit:
                    # Branches never commit; their resolution still
                    # bounds the machine's finish time.
                    last_commit = issue_resume
                if tracking:
                    issue_at[pos] = cycle
                    complete_at[pos] = issue_resume
                pos += 1
                issued += 1
                break  # nothing issues behind an unresolved branch

            unit, dest, srcs = op[0], op[1], op[2]
            ready = cycle + 1
            for src in srcs:
                tag = latest_instance[src] * n_regs + src
                avail = 0 if tag < n_regs else tag_avail[tag]
                if avail > ready:
                    ready = avail
            result = ready + latencies[unit]
            if dest >= 0:
                instance = latest_instance[dest] + 1
                latest_instance[dest] = instance
                dest_tag = instance * n_regs + dest
                if vp_warmup is not None and unit in _VP_UNIT_IDS:
                    seen = vp_seen.get(entries[pos].static_index, 0)
                    vp_seen[entries[pos].static_index] = seen + 1
                    if seen >= vp_warmup:
                        vp_hits += 1
                        # Predicted broadcast: consumers read the
                        # (correct) predicted value next cycle.
                        tag_avail[dest_tag] = cycle + 1
                    else:
                        # The reference emits this FLUSH at the
                        # producer's commit; every issued entry commits
                        # before the loop exits, so counting at issue
                        # keeps the totals identical.
                        vp_misses += 1
                        flushes += 1
                        flush_cycles += value_penalty
                        tag_avail[dest_tag] = result + value_penalty
                else:
                    tag_avail[dest_tag] = result
            ent_unit[pos] = unit
            ent_result[pos] = result
            ring.append(pos)
            live += 1
            if tracking:
                issue_at[pos] = cycle
            t_busy[unit] -= cycle
            pos += 1
            issued += 1

        occupancy_sum += live
        t_hist[live * t_stride + issued] += 1
        if pos < n_entries and issued == 0:
            if cycle < issue_resume:
                branch_stall_cycles += 1
            elif live >= window:
                full_stall_cycles += 1

        if pos >= n_entries and live == 0:
            cycle += 1
            break

        # ---- advance: next cycle anything can happen ------------------
        nxt = -1
        if live > 0:
            result = ent_result[ring[head]]
            nxt = result if result > cycle else cycle + 1
        if pos < n_entries and live < window:
            cand = issue_resume if issue_resume > cycle + 1 else cycle + 1
            op = ops[pos]
            if op[3] and op[8] and (
                predictor is None
                or predicted_correct.get(pos) is False
            ):
                a0_tag = latest_instance[_A0] * n_regs + _A0
                a0_ready = 0 if a0_tag < n_regs else tag_avail[a0_tag]
                if a0_ready > cand:
                    cand = a0_ready
            if nxt < 0 or cand < nxt:
                nxt = cand
        if nxt < 0:  # pragma: no cover - deadlock trap advances
            nxt = cycle + 1

        # Credit the skipped idle cycles to the statistics exactly as
        # the reference's cycle-by-cycle walk would have.
        idle = nxt - cycle - 1
        if idle > 0:
            occupancy_sum += live * idle
            t_hist[live * t_stride] += idle
            if pos < n_entries:
                blocked = issue_resume - cycle - 1
                if blocked > idle:
                    blocked = idle
                elif blocked < 0:
                    blocked = 0
                branch_stall_cycles += blocked
                if live >= window:
                    full_stall_cycles += idle - blocked
        cycle = nxt

    if tracking:
        record.extend(zip(issue_at, complete_at))
    detail = {
        "window_occupancy_mean": occupancy_sum / max(cycle, 1),
        "window_full_stall_cycles": float(full_stall_cycles),
        "branch_stall_cycles": float(branch_stall_cycles),
    }
    if predictor is not None:
        detail["prediction_accuracy"] = predictor.stats.accuracy
    if vp_warmup is not None:
        total = vp_hits + vp_misses
        detail["vp_accuracy"] = vp_hits / total if total else 0.0
    t_width: Dict[int, int] = {}
    t_occupancy: Dict[int, int] = {}
    for index, count in enumerate(t_hist):
        if count:
            level, issued = divmod(index, t_stride)
            t_occupancy[level] = t_occupancy.get(level, 0) + count
            if issued:
                t_width[issued] = t_width.get(issued, 0) + count
    detail.update(SimTelemetry(
        instructions=n_entries,
        cycles=max(last_commit, 1),
        stall_cycles={
            "BRANCH": branch_stall_cycles,
            "RUU_FULL": full_stall_cycles,
        },
        fu_busy_cycles={
            _UNIT_NAMES[u]: t_busy[u]
            for u in range(n_units)
            if t_busy[u]
        },
        issue_width=t_width,
        occupancy=t_occupancy,
        flushes=flushes,
        flush_cycles=flush_cycles,
    ).to_detail())
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=n_entries,
        cycles=max(last_commit, 1),
        detail=detail,
    )


# ----------------------------------------------------------------------
# Family -> loop
# ----------------------------------------------------------------------

#: The compiled loop of each :func:`~repro.core.fastpath.family_of` family.
FAMILY_LOOPS = {
    "scoreboard": simulate_scoreboard_fast,
    "inorder": simulate_inorder_fast,
    "ooo": _ooo_member,
    "ruu": simulate_ruu_fast,
    "spec": simulate_spec_fast,
    "tomasulo": simulate_tomasulo_fast,
    "cdc6600": simulate_cdc6600_fast,
}
