"""The compiled loops: one per machine family.

One compiled fast loop per machine family, each a bit-identical twin of
that family's ``reference_simulate``: state held in flat integer arrays
(one ``int`` slot per architectural register and per functional unit)
instead of hash tables, and per-unit latency/pipelining tables built
once per call.  The scoreboard, in-order and out-of-order loops keep
result-bus reservations in grow-only sets, as the reference loops do:
every probe targets a cycle after the issue front, and the front never
goes back, so a reservation at or before it is never matched again and
pruning it would change nothing.

Like the reference loops, the fast loops never scan idle cycles: they
jump straight from one issue decision to the next, so the only scans
left are the short result-bus conflict probes.

Two families replay over a per-trace plan: :func:`ruu_replay` over the
trace's rename plan, and :func:`simulate_ooo_fast` over an out-of-order
buffer plan.  Both plans are memoised on the compiled trace
(:func:`~repro.core.fastpath.ir.per_trace`), so every replay of one
trace shares them and they die with its compilation.  The one rule a
sweep adds to per-member replay lives here too: :func:`ruu_sweep`
replays an RUU sweep largest RUU first and serves every smaller RUU a
never-full run still fits from that run.
The state arrays are plain Python ``int`` lists, not NumPy vectors:
the recurrences are data-dependent (issue decisions feed the very next
comparison), and at sweep widths of 4-20 the per-op ufunc dispatch
overhead would dominate any arithmetic saved.

Five loops also skip work, not just idle cycles: the steady-state
fast-forward.  Inside a periodic region of the compiled trace
(``CompiledTrace.regions``: one loop body repeated) the loop takes its
state at each body boundary relative to the cycle and the boundary seq,
clamped at the current cycle.  The machines are deterministic and their
timing reads only the ops (and, for the speculative machine, predictor
outcomes that repeat with them), so once that state repeats after ``p``
bodies and ``dc`` cycles, every later period repeats it too: the loop
shifts its live state by as many whole periods as stay inside the
region, adds that many times the period's deltas to its histograms,
busy, stall and width counters, shifts the recorded schedule under
``record``, and replays the rest as before.  One protocol,
:class:`_SteadyState`, owns the region cursor, a cheap signature that
gates the full key (so boundaries cost O(1) until a repeat is likely),
the key history, the counter credit and the
``python.skipped_instructions`` count; traces without regions (fuzzed,
seeded generators) never enter it.  Each loop supplies only its own
part: :func:`ruu_replay` its live RUU entries as the key
(:func:`_ruu_key`) and their shift (:func:`_ruu_shift`), checked from
one body into a region on; :func:`simulate_ooo_fast` its register,
unit and bus ready cycles (:func:`_ooo_key`, :func:`_ooo_jump`),
checked at buffers that start a body; :func:`simulate_inorder_fast`
the same key plus its open issue-width run, checked at the same
buffers; :func:`simulate_scoreboard_fast` its register, write, unit
and bus state relative to the issue front, checked at every body start
from one body in; and :func:`simulate_spec_fast` its issue cursor, resume
cycle, register ready cycles and live entries (:func:`_spec_key`),
checked from one body in, but only in the sub-regions where its
predictor outcomes (:func:`spec_outcomes`) repeat body for body too --
the regions each loop hands :class:`_SteadyState`.  The CDC 6600 and
Tomasulo loops have no fast-forward.

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
:func:`repro.core.fastpath.simulate_sweep` serves every sweep member
but the RUU ones (the package does not re-export the loops).  Every
member a compiled loop serves counts as ``python.fast_runs``.

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
from .backends import count_run
from .ir import (
    CompiledTrace,
    N_REGISTERS,
    Schedule,
    UNITS,
    _A0,
    _MAX_CYCLES,
    _MEMORY,
    _MIN_BODIES,
    _UNKNOWN,
    _unit_tables,
    compile_trace,
    fetch_buffers,
    per_trace,
    unit_profile,
    window_stats,
)

__all__ = [
    "FAMILY_LOOPS",
    "ruu_sweep",
    "simulate_cdc6600_fast",
    "simulate_inorder_fast",
    "simulate_ooo_fast",
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

    Inside the trace's periodic regions the loop fast-forwards (see the
    module docstring) from one body in, at every body start: its key is
    the register, write and unit ready cycles, the last event and the
    bus reservations, all relative to the issue front, and a repeated
    key skips whole periods.
    """
    compiled = compile_trace(trace)
    count_run("fast_runs")
    latencies, pipelined = _unit_tables(
        config, machine.fu_pipelined, machine.memory_interleaved
    )
    branch_latency = config.branch_latency
    model_bus = machine.model_result_bus
    chaining = machine.vector_chaining

    reg_ready = [0] * N_REGISTERS
    write_done = [0] * N_REGISTERS
    fu_free = [0] * len(UNITS)
    # Grow-only result-bus reservations, as in :func:`simulate_ooo_fast`:
    # the issue front (`next_issue`) only ever probes cycles after itself.
    bus_reserved = set()
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

    ops = compiled.ops
    n_entries = compiled.n
    # Steady-state fast-forward: the loop runs the ops up to the next
    # checked body start in one stretch.  Region-free traces never
    # check, so they run as one stretch.
    if compiled.regions:
        steady = _SteadyState(compiled.regions, compiled.n, 1)
        next_check = steady.next_check
        # Only scalar results reserve the bus (vector ones never do), so
        # every reservation ends within the longest latency.
        horizon = max(latencies) + 1
    else:
        next_check = n_entries + 1
    pos = 0
    while True:
        for unit, dest, srcs, is_branch, _tk, is_vector, vl, uses_bus, _c in (
            ops[pos:next_check]
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
        if next_check > n_entries:
            break

        # Every checked boundary follows the body's last op, so the
        # previous issue is the same distance behind the issue front at
        # each and needs no field of the key.
        pos = steady.enter(next_check)
        if steady.gate(
            pos, next_issue,
            last_event - next_issue if last_event > next_issue else 0,
        ):
            jump = steady.repeat(
                pos, next_issue,
                (
                    tuple([
                        w - next_issue if w > next_issue else 0
                        for w in write_done
                    ]),
                    _ooo_key(next_issue, last_event, reg_ready, fu_free,
                             (bus_reserved,), horizon),
                ),
                (t_acc,), last_event,
            )
            if jump is not None:
                repeats, span, gap, event0 = jump
                lag = repeats * gap
                if tracking:
                    _extend_schedule(record, span, repeats, gap)
                for r, ready in enumerate(write_done):
                    if ready > next_issue:
                        write_done[r] = ready + lag
                _ooo_jump(next_issue, lag, reg_ready, fu_free,
                          (bus_reserved,), horizon)
                if last_event != event0:
                    last_event += lag
                t_prev += lag
                next_issue += lag
                pos += repeats * span
        next_check = steady.next_check
    if n_entries and ops[-1][3]:
        t_acc[5] -= t_shadow_credit

    detail = SimTelemetry(
        instructions=n_entries,
        cycles=last_event,
        stall_cycles={
            "RAW": t_acc[1],
            "WAW": t_acc[2],
            "UNIT": t_acc[3],
            "BUS": t_acc[4],
            "BRANCH": t_acc[5],
        },
        fu_busy_cycles=_closed_busy(compiled, latencies, branch_latency),
        issue_width={1: n_entries},
    ).to_detail()
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=n_entries,
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
    buffer cut (up to N slots, ending at the first taken branch) is the
    trace's shared :func:`~repro.core.fastpath.ir.fetch_buffers`.

    Inside the trace's periodic regions the loop fast-forwards (see the
    module docstring) at the buffers that start a body: its key is the
    out-of-order loop's (:func:`_ooo_key`) plus the open issue-width
    run, and a repeated key skips whole periods of buffers.
    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("fast_runs")
    latencies, _ = _unit_tables(config, True, True)
    branch_latency = config.branch_latency
    units = machine.issue_units
    kind = machine.bus_kind
    n_buses = 1 if kind is BusKind.ONE_BUS else units
    xbar = kind is BusKind.X_BAR

    reg_ready = [0] * N_REGISTERS
    fu_free = [0] * len(UNITS)
    # Grow-only result-bus reservations, as in :func:`simulate_ooo_fast`.
    buses: List[set] = [set() for _ in range(n_buses)]

    ops = compiled.ops
    n_entries = compiled.n
    cycle = 0
    last_event = 0
    tracking = record is not None
    # Buffer occupancy and flush totals are a pure function of the
    # compiled taken flags and the issue width, pulled from the
    # shared per-trace cache instead of recounted per replay; only
    # the issue-width histogram needs the loop, and runs never
    # exceed the buffer width, so it lives in a flat list.
    t_width = [0] * (units + 1)
    t_run = 0
    t_run_cycle = -1

    starts, lengths = fetch_buffers(compiled, units)
    # Steady-state fast-forward at the buffers that start a body; every
    # issue-width run but the open one ends before the cycle floor at a
    # buffer start, so the next issue closes it.  Region-free traces
    # never check.
    if compiled.regions:
        steady = _SteadyState(compiled.regions, compiled.n, 0, starts)
        next_check = steady.next_check
        horizon = max(latencies) + 1  # bus reservations end before this
    else:
        next_check = n_entries + 1

    buffers = zip(starts, lengths)
    for pos, length in buffers:
        if pos >= next_check:
            if steady.enter(pos) == pos and steady.gate(
                pos, cycle, (t_run, last_event - cycle if last_event > cycle
                             else 0)
            ):
                jump = steady.repeat(
                    pos, cycle,
                    (t_run, _ooo_key(cycle, last_event, reg_ready, fu_free,
                                     buses, horizon)),
                    (t_width,), last_event,
                )
                if jump is not None:
                    repeats, span, gap, event0 = jump
                    skip = repeats * span
                    if tracking:
                        _extend_schedule(record, span, repeats, gap)
                    _ooo_jump(cycle, repeats * gap, reg_ready, fu_free, buses,
                              horizon)
                    if last_event != event0:
                        last_event += repeats * gap
                    cycle += repeats * gap
                    pos, length = next(islice(
                        buffers,
                        bisect_left(starts, pos + skip)
                        - bisect_left(starts, pos) - 1,
                        None,
                    ))
            next_check = steady.next_check

        for index in range(pos, pos + length):
            unit, dest, srcs, is_branch, _t, _v, _vl, _bus, _c = ops[index]
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

            if is_branch:
                resolve = cycle + branch_latency
                if resolve > last_event:
                    last_event = resolve
                cycle = resolve

        if not is_branch:
            # Straight-line tail (a cut buffer ends in its taken
            # branch): the refill is overlapped, examinable the cycle
            # after the last issue.
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
    count_run("fast_runs")
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

    Stations live in flat per-seq arrays.  An operand tag names the
    latest earlier write of its register, a function of program order
    alone, so tags are the producer seqs of :func:`ruu_plan` and a
    result's broadcast cycle is one list slot per seq.  The per-cycle
    outer loop jumps straight to the next cycle anything can happen:
    the wakeup heap's root, the station release that unblocks issue, a
    known branch-operand availability, or branch resolution.  Inside an
    active cycle the start/issue order matches the reference exactly.
    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("fast_runs")
    table = config.latencies
    latencies = [table.latency(unit) for unit in UNITS]
    branch_latency = config.branch_latency
    capacity = machine.stations_per_unit
    cdb_width = machine.cdb_width

    ops = compiled.ops
    n_entries = compiled.n
    n_units = len(UNITS)
    _units, producers, consumers, branch_wait, _ring = ruu_plan(compiled)

    # Broadcast cycle of each seq's result, _UNKNOWN until it dispatches.
    avail = [_UNKNOWN] * n_entries

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
            if st_dest[seq] >= 0:
                broadcast = finish
                while cdb_used.get(broadcast, 0) >= cdb_width:
                    broadcast += 1
                cdb_used[broadcast] = cdb_used.get(broadcast, 0) + 1
                avail[seq] = broadcast
                # The consumers already issued are exactly those still
                # waiting on this result.
                for dep in consumers[seq]:
                    if dep >= pos:
                        break
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
                producer = branch_wait[pos]
                a0_ready = 0 if producer < 0 else avail[producer]
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
                    st_dest[pos] = op[1]
                    pending = 0
                    ready = cycle + 1  # earliest start: next cycle
                    for producer in producers[pos]:
                        back = avail[producer]
                        if back == _UNKNOWN:
                            pending += 1
                        elif back > ready:
                            ready = back
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
                producer = branch_wait[pos]
                if producer >= 0:
                    back = avail[producer]
                    if back == _UNKNOWN:
                        cand = -1  # producer must dispatch first
                    elif back > cand:
                        cand = back
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
    compared against the live count); :func:`ruu_sweep` reuses such runs.
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


class _SteadyState:
    """The steady-state fast-forward of one replay (see the module
    docstring), shared by :func:`ruu_replay`, :func:`simulate_ooo_fast`,
    :func:`simulate_inorder_fast`, :func:`simulate_scoreboard_fast` and
    :func:`simulate_spec_fast`: the region cursor, the signature gate,
    the key history, the counter credit and the skipped-instruction
    count.

    A loop keeps :attr:`next_check` in a local and calls in only once
    its cursor (the next seq to issue) reaches it: :meth:`enter` with
    the cursor; then, if the loop's own boundary condition holds,
    :meth:`gate` with its cheap signature; and, if that signature
    repeats, :meth:`repeat` with its full state key.  A jump that
    :meth:`repeat` returns has had its counters credited and its
    instructions counted; the loop applies its own shift.  Either way
    the loop then reloads :attr:`next_check`.

    *regions* are the ``(start, period, end)`` regions the loop may jump
    in (``compiled.regions``, or sub-regions of them) and *n* the trace
    length; *first* is the number of bodies into a region before its
    first checked boundary; *stops*, when given, the sorted seqs a jump
    may land on (the loop's cursor stands on no others).
    """

    def __init__(self, regions, n: int, first: int, stops=None) -> None:
        self.regions = regions
        # Past every seq, and small: CPython compares small ints faster.
        self.never = n + 1
        self.first = first
        self.stops = stops
        self.region = -1
        self.leave = True
        self.boundary_cycle = 0
        self.next_check = self._following()

    def _following(self) -> int:
        """The first boundary checked in the region after this one."""
        if self.region + 1 < len(self.regions):
            start, period, _end = self.regions[self.region + 1]
            return start + self.first * period
        return self.never

    def enter(self, pos: int) -> int:
        """Take the body boundary the cursor *pos* has reached; returns
        the start of the body holding *pos*."""
        if self.leave:
            self.region += 1
            self.start, self.period, self.end = self.regions[self.region]
            self.seen = {}
            self.signatures = set()
        period = self.period
        base = pos - (pos - self.start) % period
        # No later boundary can jump: leave the region after this one.
        self.leave = base + 2 * period >= self.end
        self.next_check = self._following() if self.leave else base + period
        return base

    def gate(self, pos: int, cycle: int, signature) -> bool:
        """Whether the full key is worth building at this boundary: the
        cycles since the last gated boundary and the loop's *signature*
        were seen together before in this region.  No period fits once
        the cursor is within one body of the region's end."""
        if pos + self.period >= self.end:
            return False
        signature = (cycle - self.boundary_cycle, signature)
        self.boundary_cycle = cycle
        if signature in self.signatures:
            return True
        self.signatures.add(signature)
        return False

    def repeat(self, pos: int, cycle: int, key, tallies, extra):
        """Jump if *key* was the state at an earlier boundary of this
        region, else remember it.

        *tallies* are the loop's counter lists, snapshotted with the key
        and credited in place on a jump (a loop passes its scalar
        counters in a fresh list and reads them back); *extra* is
        whatever else the loop's shift needs from the earlier boundary.
        Returns None, or ``(repeats, span, gap, extra then)``: the
        periods skipped, and the seqs and cycles per period."""
        snapshot = self.seen.get(key)
        if snapshot is None:
            self.seen[key] = (cycle, pos, [tally[:] for tally in tallies],
                              extra)
            return None
        cycle0, pos0, tallies0, extra0 = snapshot
        span = pos - pos0  # seqs per state period
        repeats = (self.end - 1 - pos) // span
        skip = repeats * span
        if repeats <= 0:
            return None
        if self.stops is not None:
            target = bisect_left(self.stops, pos + skip)
            if target == len(self.stops) or self.stops[target] != pos + skip:
                return None
        for tally, before in zip(tallies, tallies0):  # repeats more periods
            for index, count in enumerate(before):
                if tally[index] != count:
                    tally[index] += repeats * (tally[index] - count)
        count_run("skipped_instructions", skip)
        self.leave = True
        self.next_check = self._following()
        return repeats, span, cycle - cycle0, extra0


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
    once per spec, :func:`ruu_sweep` once per distinct replay of a
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
    memory_seqs = (
        [seq for seq in ring if units[seq] == _MEMORY] if ordered_memory
        else []
    )
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

    # Steady-state fast-forward: renaming reads up to one body back, so
    # the first boundary checked is one body into a region.
    steady = _SteadyState(compiled.regions, compiled.n, 1)
    next_check = steady.next_check

    while True:
        if cycle > _MAX_CYCLES:  # pragma: no cover - bug trap
            raise RuntimeError("RUU simulation failed to make progress")

        if pos >= next_check:
            base = steady.enter(pos)
            # Only a live window inside the region repeats.
            if (head == tail or ring[head] >= steady.start) and steady.gate(
                pos, cycle, (pos - base, tail - head)
            ):
                counts = [full_stall_cycles, branch_stall_cycles, memory_index]
                jump = steady.repeat(
                    pos, cycle,
                    _ruu_key(
                        base, cycle, pos, head, tail, ring, result, pending,
                        ready, heap, stride, issue_resume,
                        memory_seqs[memory_index] - base
                        if memory_index < len(memory_seqs) else -1,
                    ),
                    (busy, hist, counts), (head, issue_resume),
                )
                if jump is not None:
                    repeats, span, gap, (head0, resume0) = jump
                    full_stall_cycles, branch_stall_cycles, memory_index = (
                        counts
                    )
                    entries = head - head0  # ring entries per period
                    skip = repeats * span
                    lag = repeats * gap
                    moved = repeats * entries
                    low = pos - steady.period
                    if head < tail and ring[head] < low:
                        low = ring[head]
                    _ruu_shift(low, pos, skip, lag, result, avail, pending,
                               ready)
                    if tracking:
                        for seq in range(pos, pos + skip):
                            issue_at[seq] = issue_at[seq - span] + gap
                            if branch_wait[seq] != _NOT_BRANCH:
                                complete_at[seq] = (
                                    complete_at[seq - span] + gap
                                )
                        for index in range(head, head + moved):
                            complete_at[ring[index]] = (
                                complete_at[ring[index - entries]] + gap
                            )
                    heap = [h + lag * stride + skip for h in heap]
                    eligible = [seq + skip for seq in eligible]
                    # The last commit needs no shift: whatever is still
                    # live, or left to issue, commits or resolves later
                    # than any skipped commit.
                    if issue_resume != resume0:
                        issue_resume += lag
                    pos += skip
                    head += moved
                    tail += moved
                    cycle += lag
                    # Return-path uses from this cycle on are exactly the
                    # live results' return cycles.
                    ret_used = {}
                    for index in range(head, tail):
                        back = result[ring[index]]
                        if back != _UNDISPATCHED and back >= cycle:
                            ret_used[back] = ret_used.get(back, 0) + 1
            next_check = steady.next_check

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
    count_run("fast_runs")
    run = ruu_replay(compiled, machine, config, record is not None)
    if record is not None:
        record.extend(run.schedule)
    return _result(compiled, machine, config, run.cycles, run.detail)


def ruu_sweep(compiled, items) -> List[SimulationResult]:
    """Every RUU sweep member (``SweepItem``) over one scalar trace: the
    one thing a sweep does that per-member replay cannot.

    Members that differ only in RUU size are replayed largest first: a
    run whose peak occupancy stayed below the next smaller size never
    found the RUU full, so that size replays it cycle for cycle and takes
    a copy of its result instead of a replay.  Members that agree on
    every timing parameter (``ruu:1:R`` over N-Bus and 1-Bus, whose three
    paths are all one wide) share one replay the same way.  Every member
    counts as ``python.fast_runs``; those served from another's replay
    also count as ``python.reused_runs``.  Results come back in item
    order.
    """
    classes: Dict[Tuple, List[int]] = {}
    for k, item in enumerate(items):
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

    count_run("fast_runs", len(items))
    results: List[SimulationResult] = [None] * len(items)  # type: ignore
    for members in classes.values():
        members.sort(key=lambda k: -items[k].simulator.ruu_size)
        tracking = any(items[k].record is not None for k in members)
        run = None
        run_size = 0
        for k in members:
            item = items[k]
            size = item.simulator.ruu_size
            if run is not None and (run.peak < size or size == run_size):
                count_run("reused_runs")
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
# Out-of-order multiple issue (Section 5.2): shared hazard bitmasks
# ----------------------------------------------------------------------

#: Cap on buffer-drain scan passes, mirroring the reference's guard.
_MAX_BUFFER_CYCLES = 100_000

#: Drain tags for out-of-order buffer records (see :func:`_ooo_plan`).
_SINGLE, _INDEP, _SCAN = 0, 1, 2

@per_trace
def _ooo_plan(compiled, units: int, enforce_war: bool) -> List[tuple]:
    """Decode every fetch buffer of *compiled*
    (:func:`~repro.core.fastpath.ir.fetch_buffers`) once for an
    out-of-order machine of the given issue width and WAR policy.

    The buffer cut (after the first taken branch) and the intra-buffer
    hazard structure are config-independent, so the plan is shared by
    every sweep member and memoised on the compiled trace across sweep
    and per-spec calls.  Records are ``(pos, tag, payload, full_mask)``
    (see :func:`_ooo_decode`); buffers with equal ops share one decode,
    so a loop body's buffers decode once.
    """
    ops = compiled.ops
    buffers: List[tuple] = []
    decoded: Dict[tuple, tuple] = {}
    for pos, blen in zip(*fetch_buffers(compiled, units)):
        window = ops[pos:pos + blen]
        record = decoded.get(window)
        if record is None:
            record = decoded[window] = _ooo_decode(window, enforce_war)
        buffers.append((pos, *record))
    return buffers


def _ooo_decode(window, enforce_war: bool) -> tuple:
    """``(tag, payload, full_mask)`` of the fetch buffer holding the ops
    *window*.  A single's payload is its op tuple; any other buffer's is
    one ``(bit, gate, branches, unit, dest, srcs, is_branch)`` tuple per
    slot, where ``gate`` masks the earlier slots that must issue first
    (RAW/WAW, WAR when enforced, and every earlier branch) and
    ``branches`` lists the earlier branch slots that must also have
    resolved.
    """
    if len(window) == 1:
        return (_SINGLE, window[0], 0)

    # Independent: no branch, no shared functional unit and no register
    # shared in any direction (see :func:`simulate_ooo_fast`).
    slots: List[tuple] = []
    units_seen = 0
    indep = True
    for slot, op in enumerate(window):
        unit, dest, srcs, is_branch = op[:4]
        gate = 0
        branches = []
        for earlier, (_b, _g, _bs, _u, edest, esrcs, ebranch) in (
            enumerate(slots)
        ):
            if ebranch:
                gate |= 1 << earlier
                branches.append(earlier)
            if edest >= 0 and (edest in srcs or edest == dest):
                gate |= 1 << earlier
                indep = False
            elif dest >= 0 and dest in esrcs:
                indep = False
                if enforce_war:
                    gate |= 1 << earlier
        if is_branch or units_seen >> unit & 1:
            indep = False
        units_seen |= 1 << unit
        slots.append((1 << slot, gate, tuple(branches), unit, dest, srcs,
                      is_branch))
    return (_INDEP if indep else _SCAN, tuple(slots), (1 << len(window)) - 1)


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


def _extend_schedule(record, span, repeats, gap) -> None:
    """Append *repeats* more periods to the schedule *record*: its last
    *span* rows, each period *gap* cycles after the one before."""
    period = record[-span:]
    for times in range(1, repeats + 1):
        lag = times * gap
        record.extend([(issue + lag, done + lag) for issue, done in period])


def _shift_schedule(issue_at, complete_at, pos, skip, span, gap) -> None:
    """Fill the schedule of seqs ``[pos, pos + skip)`` by shifting the
    period *span* seqs and *gap* cycles back, oldest first."""
    for seq in range(pos, pos + skip):
        issue_at[seq] = issue_at[seq - span] + gap
        complete_at[seq] = complete_at[seq - span] + gap


def simulate_ooo_fast(
    machine,
    trace: Trace,
    config: MachineConfig,
    record: Optional[Schedule] = None,
) -> SimulationResult:
    """Fast twin of
    :meth:`OutOfOrderMultiIssueMachine.reference_simulate`.

    It runs in two phases.  Phase 1
    (:func:`_ooo_plan`, cached per compiled trace) decodes every fetch
    buffer once -- the buffer cut (after the first taken branch) and the
    intra-buffer hazard structure are config-independent -- into
    per-slot hazard bitmasks, so each scan tests ``gate & unissued``
    instead of walking earlier slots each cycle, and tags each buffer
    with one of three drains that reproduce the reference:

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
        Specs with a shared bus (1-Bus, crossbar) take the scan drain.
    ``scan``
        Every other buffer: the reference's scan, with its separate
        jump-candidate pass folded into the issue scan: candidates are
        only consulted when the scan issued nothing, exactly the case
        where no state changed during the scan, so inline candidates
        equal what a second pass over the same state would compute.  A
        branch-free buffer is the case with no branch slots to gate or
        wait on.

    Phase 2 replays the prebuilt buffer records with this config's
    latencies, bus wiring and machine state bound as locals for the
    whole trace.

    Bus reservations are grow-only sets (see the module docstring).

    Inside the trace's periodic regions the replay fast-forwards (see
    the module docstring): :func:`_ooo_key` is its state at a buffer
    that starts a body, and a repeated key skips whole periods of
    buffers in closed form.
    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("fast_runs")
    units = machine.issue_units
    buffers = _ooo_plan(compiled, units, machine.enforce_war)
    positions = fetch_buffers(compiled, units)[0]
    # Buffer occupancy and taken-branch flushes depend only on the
    # taken flags (shared per-trace cache).  A single-slot buffer always
    # issues alone, so the single-slot buffers' width-1 count is the
    # occupancy histogram's one-slot count, added once at the end.
    t_occ, t_flushes, t_flush_cycles = window_stats(compiled, units)

    table = config.latencies
    latencies = [table.latency(unit) for unit in UNITS]
    brlat = config.branch_latency
    kind = machine.bus_kind
    nb = 1 if kind is BusKind.ONE_BUS else units
    xb = kind is BusKind.X_BAR
    regs = [0] * N_REGISTERS
    fuf = [0] * len(UNITS)
    buses = [set() for _ in range(nb)]
    # slot -> result bus, replacing `slot % nb` in the drains (a slot
    # index never exceeds the issue-unit count).
    busmap = buses if nb != 1 else buses * units
    track = record is not None
    issue_at = [0] * compiled.n if track else None
    complete_at = [0] * compiled.n if track else None
    cycle = 0
    last_event = 0
    closed_ok = nb != 1 and not xb
    # Scan passes issue at most `units` slots, so width counts live in a
    # flat list; single-slot buffers are added once at the end.
    t_width = [0] * (units + 1)
    t_cs: List[int] = []
    t_cs_append = t_cs.append
    # Steady-state fast-forward at the buffers that start a body.  The
    # buffers from any body start on are the same shifted (no rename
    # plan here), so the first body is already a boundary.
    steady = _SteadyState(compiled.regions, compiled.n, 0, positions)
    next_check = steady.next_check
    horizon = max(latencies) + 1  # bus reservations end before this
    # Scan drains read the resolution of earlier branch slots of the
    # same buffer only, each written when that slot issued.
    branch_resolve = [0] * units

    records = iter(buffers)
    for pos, tag, payload, full_mask in records:
        if pos >= next_check:
            if steady.enter(pos) == pos and steady.gate(
                pos, cycle, last_event - cycle if last_event > cycle else 0
            ):
                jump = steady.repeat(
                    pos, cycle,
                    _ooo_key(cycle, last_event, regs, fuf, buses, horizon),
                    (t_width,), last_event,
                )
                if jump is not None:
                    repeats, span, gap, event0 = jump
                    skip = repeats * span
                    if track:
                        _shift_schedule(issue_at, complete_at, pos, skip,
                                        span, gap)
                    _ooo_jump(cycle, repeats * gap, regs, fuf, buses,
                              horizon)
                    if last_event != event0:
                        last_event += repeats * gap
                    cycle += repeats * gap
                    pos, tag, payload, full_mask = next(islice(
                        records,
                        bisect_left(positions, pos + skip)
                        - bisect_left(positions, pos) - 1,
                        None,
                    ))
            next_check = steady.next_check

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
                        if complete not in buses[bus_index]:
                            chosen = bus_index
                            break
                    if chosen < 0:
                        while all(complete in bus for bus in buses):
                            c += 1
                            complete += 1
                        for bus_index in range(nb):
                            if complete not in buses[bus_index]:
                                chosen = bus_index
                                break
                    reserved = buses[chosen]
                else:
                    reserved = buses[0]
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
                    issue_at[pos] = c
                    complete_at[pos] = resolve
            else:
                if complete > last_event:
                    last_event = complete
                cycle = c + 1
                if track:
                    issue_at[pos] = c
                    complete_at[pos] = complete
            continue

        if tag == _INDEP and closed_ok:
            maxc = cycle
            for slot, (_b, _g, _bs, unit, dest, srcs, _br) in enumerate(
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
                    reserved = buses[slot]
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
                    issue_at[pos + slot] = c
                    complete_at[pos + slot] = complete
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

        # Scan drain: a slot waits for the earlier slots its gate names
        # to issue, and for the earlier branches among them to resolve.
        unissued = full_mask
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
                bit, gate, branches, unit, dest, srcs, is_branch
            ) in enumerate(payload):
                if not unissued & bit:
                    continue
                # Gated by an earlier *unissued* slot (branch or
                # hazard): that slot's own candidate bounds this
                # one, so it contributes nothing to the jump.
                if gate & unissued:
                    continue
                earliest = cycle
                for b in branches:
                    resolve = branch_resolve[b]
                    if resolve > earliest:
                        earliest = resolve
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
                    # nothing issues this scan, i.e. when state did
                    # not change under us).
                    cand = earliest
                    if dest >= 0:
                        if xb:
                            while all(
                                cand + latency in bus for bus in buses
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
                            if complete not in buses[bus_index]:
                                chosen = bus_index
                                break
                        if chosen < 0:
                            cand = cycle + 1
                            while all(
                                cand + latency in bus for bus in buses
                            ):
                                cand += 1
                            if nxt < 0 or cand < nxt:
                                nxt = cand
                            continue
                        reserved = buses[chosen]
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
                # Issue slot at `cycle`; a branch completes when it
                # resolves.
                unissued &= ~bit
                progressed = True
                fuf[unit] = cycle + 1
                if is_branch:
                    complete = cycle + brlat
                    branch_resolve[slot] = complete
                    if complete > barrier:
                        barrier = complete
                if complete > last_event:
                    last_event = complete
                if track:
                    issue_at[pos + slot] = cycle
                    complete_at[pos + slot] = complete
                if not unissued:
                    break
            # Scan passes visit strictly increasing cycles, so the
            # issues of one pass are one cycle's issue width (issued
            # bits = before ^ unissued, since unissued only ever
            # loses bits).
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

    t_width[1] += t_occ.get(1, 0)
    if track:
        record.extend(zip(issue_at, complete_at))
    cycles = max(last_event, 1)
    detail = SimTelemetry(
        instructions=compiled.n,
        cycles=cycles,
        stall_cycles={},
        fu_busy_cycles=_closed_busy(compiled, latencies, brlat),
        issue_width={w: c for w, c in enumerate(t_width) if c},
        occupancy=t_occ,
        flushes=t_flushes,
        flush_cycles=t_flush_cycles,
    ).to_detail()
    return _result(compiled, machine, config, cycles, detail)


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


class SpecOutcomes(NamedTuple):
    """Every predictor outcome of one trace: see :func:`spec_outcomes`."""

    codes: bytes
    regions: Tuple[Tuple[int, int, int], ...]
    accuracy: float
    mispredicts: int
    vp_hits: int
    vp_misses: int


@per_trace
def spec_outcomes(compiled, factory, vp_warmup, *, entries) -> SpecOutcomes:
    """The timing-free half of a speculative replay, once per trace and
    (predictor factory, value-prediction warm-up), memoised on the
    compiled trace.

    No outcome reads a cycle.  Each conditional branch is predicted
    once, when it first reaches the issue stage, and issue is in program
    order; a value producer hits once its static instruction has been
    seen ``vp_warmup`` times, also in program order.  So one pass over
    the trace with a fresh instance of the machine's real predictor
    fixes ``codes``: per seq, 1 for a correctly predicted conditional
    branch or a value-prediction hit, else 0 (a replay reads a code only
    where its machine predicts).  The predictor's accuracy and the
    misprediction and value-miss counts come with it.  The static
    branch attributes the IR does not carry (``static_index``,
    ``backward``) are read from *entries*, the trace's own entries.

    ``regions`` are the trace's periodic regions cut down to where the
    codes repeat body for body too: each starts at the first body
    boundary from which every code equals the code one period back up
    to the region's end (a 2-bit counter trains over the first bodies,
    a ``stride`` value predictor warms up over two), and a region left
    with fewer than :data:`~repro.core.fastpath.ir._MIN_BODIES` bodies
    is dropped.
    """
    if factory is None and vp_warmup is None:
        return SpecOutcomes(bytes(compiled.n), compiled.regions, 0.0, 0, 0, 0)
    codes = bytearray(compiled.n)
    predictor = factory() if factory is not None else None
    seen: Dict[int, int] = {}
    mispredicts = vp_hits = vp_misses = 0
    for seq, op in enumerate(compiled.ops):
        if op[3]:
            if predictor is None or not op[8]:
                continue
            entry = entries[seq]
            taken = op[4]
            correct = predictor.record(
                predictor.predict_outcome(
                    entry.static_index, bool(entry.backward), taken
                ),
                taken,
            )
            predictor.update(entry.static_index, taken)
            if correct:
                codes[seq] = 1
            else:
                mispredicts += 1
        elif vp_warmup is not None and op[1] >= 0 and op[0] in _VP_UNIT_IDS:
            static = entries[seq].static_index
            count = seen.get(static, 0)
            seen[static] = count + 1
            if count >= vp_warmup:
                codes[seq] = 1
                vp_hits += 1
            else:
                vp_misses += 1

    regions = []
    for start, period, end in compiled.regions:
        # The last seq whose code differs from one body back, found a
        # body at a time from the region's end.
        last = start + period - 1
        high = end
        while high > start + period:
            low = max(high - period, start + period)
            if codes[low:high] != codes[low - period:high - period]:
                last = max(
                    seq for seq in range(low, high)
                    if codes[seq] != codes[seq - period]
                )
                break
            high = low
        start += (last - start) // period * period
        if end - start >= _MIN_BODIES * period:
            regions.append((start, period, end))
    return SpecOutcomes(
        bytes(codes), tuple(regions),
        predictor.stats.accuracy if predictor is not None else 0.0,
        mispredicts, vp_hits, vp_misses,
    )


def _spec_key(
    base, cycle, pos, issue_resume, reg_avail, ring, head, ent_result
) -> tuple:
    """The speculative loop's state at a body boundary *base*, relative
    to *cycle* and *base*: the issue cursor, the issue resume cycle, the
    register ready cycles and each live entry's offset and result cycle.
    Cycles are clamped at the current one (0 for anything due by now):
    the loop only compares them against cycles from here on."""
    flat = [pos - base, issue_resume - cycle if issue_resume > cycle else 0]
    flat += [ready - cycle if ready > cycle else 0 for ready in reg_avail]
    for index in range(head, len(ring)):
        seq = ring[index]
        back = ent_result[seq]
        flat += (seq - base, back - cycle if back > cycle else 0)
    return tuple(flat)


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
    phase, no ready heap -- and, issue being in program order, the
    operand tags reduce to one ready cycle per architectural register.
    What remains cycle-accurate is the commit / issue walk (window gate,
    issue width, branch resume, in-order width-limited commit), and the
    outer loop jumps over idle cycles crediting occupancy and stall
    statistics in closed form, exactly like :func:`simulate_ruu_fast`.

    Unlike the RUU loop, predictors *are* modelled here, by sharing the
    implementation rather than reimplementing it: the trace's memoised
    :func:`spec_outcomes` replays the machine's real predictor object in
    program order, so each branch outcome and value-prediction hit is a
    code read, and the accuracies and flush counts are closed forms.

    Inside the periodic regions where those codes repeat too
    (``spec_outcomes(...).regions``) the loop fast-forwards (see the
    module docstring) from one body in: its key (:func:`_spec_key`) is
    the issue cursor and resume cycle, the register ready cycles and the
    live entries' result cycles, and a repeated key skips whole periods.

    Schedule records: non-branch entries report ``(issue, commit)``
    matching the reference's ISSUE/COMPLETE events; branches report
    ``(issue, resolution)`` where resolution is the cycle correct-path
    issue resumed (issue + 1 for a predicted-correct or decode-redirected
    branch, the full recovery window after a mispredict, issue + branch
    latency with prediction off).
    """
    compiled = require_scalar(compile_trace(trace), machine)
    count_run("fast_runs")
    table = config.latencies
    latencies = [table.latency(unit) for unit in UNITS]
    branch_latency = config.branch_latency
    width = machine.path_width
    issue_units = machine.issue_units
    window = machine.window
    recovery_window = branch_latency + machine.recovery_penalty
    predicting = machine.predictor_factory is not None
    vp_warmup = machine.vp_warmup
    value_penalty = machine.value_penalty
    outcomes = spec_outcomes(
        compiled, machine.predictor_factory, vp_warmup, entries=trace.entries
    )
    codes = outcomes.codes
    # Issue resume delay of an unconditional branch (a decode redirect
    # under speculation) and of a branch that waits for its A0 operand
    # (a mispredicted one, or any conditional one without speculation).
    unconditional_delay = 1 if predicting else branch_latency
    resolved_delay = recovery_window if predicting else branch_latency

    ops = compiled.ops
    n_entries = compiled.n
    n_units = len(UNITS)

    # The cycle each register's latest value is readable from.
    reg_avail = [0] * N_REGISTERS
    ent_result = [0] * n_entries

    ring: List[int] = []  # program-ordered live entries (seqs)
    head = 0
    live = 0

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

    # Steady-state fast-forward, from one body into each region whose
    # outcome codes have settled.
    steady = _SteadyState(outcomes.regions, n_entries, 1)
    next_check = steady.next_check

    while True:
        if cycle > _MAX_CYCLES:  # pragma: no cover - bug trap
            raise RuntimeError("spec simulation failed to make progress")

        if pos >= next_check:
            base = steady.enter(pos)
            # Only a live window inside the region repeats.
            if (live == 0 or ring[head] >= steady.start) and steady.gate(
                pos, cycle, (pos - base, live)
            ):
                counts = [full_stall_cycles, branch_stall_cycles]
                jump = steady.repeat(
                    pos, cycle,
                    _spec_key(base, cycle, pos, issue_resume, reg_avail, ring,
                              head, ent_result),
                    (t_busy, t_hist, counts), None,
                )
                if jump is not None:
                    repeats, span, gap, _ = jump
                    full_stall_cycles, branch_stall_cycles = counts
                    skip = repeats * span
                    lag = repeats * gap
                    live_seqs = ring[head:]
                    # Youngest first: a jump shorter than the window
                    # overlaps it, and each source is read before it is
                    # overwritten.
                    for seq in reversed(live_seqs):
                        ent_result[seq + skip] = ent_result[seq] + lag
                    if tracking:
                        # The live entries commit in the first skipped
                        # period, one period after the entries before.
                        for seq in live_seqs:
                            complete_at[seq] = complete_at[seq - span] + gap
                        _shift_schedule(issue_at, complete_at, pos, skip,
                                        span, gap)
                    ring = [seq + skip for seq in live_seqs]
                    head = 0
                    for r, ready in enumerate(reg_avail):
                        if ready > cycle:
                            reg_avail[r] = ready + lag
                    if issue_resume > cycle:
                        issue_resume += lag
                    # The last commit needs no shift: whatever is still
                    # live, or left to issue, commits or resolves later
                    # than any skipped commit.
                    pos += skip
                    cycle += lag
            next_check = steady.next_check

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
            t_busy[ops[seq][0]] += cycle
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
                if not op[8]:
                    issue_resume = cycle + unconditional_delay
                elif predicting and codes[pos]:
                    issue_resume = cycle + 1
                else:
                    if reg_avail[_A0] > cycle:
                        break  # the branch waits for A0 at the issue stage
                    issue_resume = cycle + resolved_delay
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
                avail = reg_avail[src]
                if avail > ready:
                    ready = avail
            result = ready + latencies[unit]
            if dest >= 0:
                if vp_warmup is not None and unit in _VP_UNIT_IDS:
                    # A hit broadcasts the (correct) predicted value next
                    # cycle; a miss squashes its consumers, who read the
                    # value late.
                    reg_avail[dest] = (
                        cycle + 1 if codes[pos] else result + value_penalty
                    )
                else:
                    reg_avail[dest] = result
            ent_result[pos] = result
            ring.append(pos)
            live += 1
            if tracking:
                issue_at[pos] = cycle
            t_busy[unit] -= cycle
            pos += 1
            issued += 1

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
            if op[3] and op[8] and not (predicting and codes[pos]):
                a0_ready = reg_avail[_A0]
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
    occupancy_sum = 0
    t_width: Dict[int, int] = {}
    t_occupancy: Dict[int, int] = {}
    for index, count in enumerate(t_hist):
        if count:
            level, issued = divmod(index, t_stride)
            occupancy_sum += level * count
            t_occupancy[level] = t_occupancy.get(level, 0) + count
            if issued:
                t_width[issued] = t_width.get(issued, 0) + count
    detail = {
        "window_occupancy_mean": occupancy_sum / max(cycle, 1),
        "window_full_stall_cycles": float(full_stall_cycles),
        "branch_stall_cycles": float(branch_stall_cycles),
    }
    mispredicts, vp_misses = outcomes.mispredicts, outcomes.vp_misses
    if predicting:
        detail["prediction_accuracy"] = outcomes.accuracy
    if vp_warmup is not None:
        total = outcomes.vp_hits + vp_misses
        detail["vp_accuracy"] = outcomes.vp_hits / total if total else 0.0
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
        flushes=mispredicts + vp_misses,
        flush_cycles=mispredicts * recovery_window + vp_misses * value_penalty,
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
    "ooo": simulate_ooo_fast,
    "ruu": simulate_ruu_fast,
    "spec": simulate_spec_fast,
    "tomasulo": simulate_tomasulo_fast,
    "cdc6600": simulate_cdc6600_fast,
}
