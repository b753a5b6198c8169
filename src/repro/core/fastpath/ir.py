"""The compiled trace IR: per-trace lowering shared by every replay.

The reference simulators spend most of their wall time in
per-instruction Python object churn: property chains
(``entry.instruction.unit`` walks two dataclasses and an enum),
``Instruction.source_registers`` building fresh tuples with
``isinstance`` filtering, ``latency()`` method calls, and scoreboard
dictionaries keyed by frozen-dataclass :class:`~repro.isa.registers.Register`
objects whose ``__hash__`` is recomputed on every lookup.  None of that
work depends on the cycle being modelled -- it is the same for every
replay of the same trace.

:func:`compile_trace` therefore lowers a :class:`~repro.trace.Trace`
once into flat parallel tuples of small integers -- functional-unit
index, destination/source register ids, branch/vector/bus flags, vector
length -- resolved a single time up front and cached per trace object.
The per-spec loops (:mod:`repro.core.fastpath.python_backend`) and the
batch sweep kernels (:mod:`repro.core.fastpath.batch`) replay the
compiled form; the lowering itself is machine- and config-independent,
so one compilation serves every machine variant and every replay.  The
same pass marks where the trace is one loop body repeated
(``CompiledTrace.regions``), which the RUU and out-of-order loops
fast-forward through.

Everything else derived from a compiled trace alone -- the per-unit op
profile, the fetch-window counts, the RUU rename plan, the out-of-order
buffer plans -- is memoised on the compiled trace itself by
:func:`per_trace` (``CompiledTrace.derived``), so it lives exactly as
long as the trace's compilation does.  The compile cache is the one
weakly keyed cache of the package.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...isa.functional_units import FunctionalUnit
from ...isa.registers import RegFile
from ...trace import Trace
from ..config import MachineConfig

__all__ = [
    "CompiledTrace",
    "N_REGISTERS",
    "Op",
    "Schedule",
    "UNITS",
    "compile_trace",
    "per_trace",
    "unit_profile",
    "window_stats",
]

# ----------------------------------------------------------------------
# Dense id spaces: registers and functional units
# ----------------------------------------------------------------------

#: Functional units in enum order; a unit's id is its position here.
UNITS: Tuple[FunctionalUnit, ...] = tuple(FunctionalUnit)
_UNIT_INDEX: Dict[FunctionalUnit, int] = {u: i for i, u in enumerate(UNITS)}
_MEMORY = _UNIT_INDEX[FunctionalUnit.MEMORY]
_BRANCH = _UNIT_INDEX[FunctionalUnit.BRANCH]

#: file -> first register id, packing every architectural register into
#: one dense 0..N_REGISTERS-1 space (A, S, B, T, V, L in enum order).
_FILE_OFFSETS: Dict[RegFile, int] = {}
_offset = 0
for _file in RegFile:
    _FILE_OFFSETS[_file] = _offset
    _offset += _file.size
N_REGISTERS = _offset
del _offset, _file

#: Dense id of A0, the register conditional branches test.
_A0 = _FILE_OFFSETS[RegFile.A]

#: Sentinel for "availability not yet known" (matches the RUU/Tomasulo
#: reference loops) and livelock guard, shared by the windowed fast loops.
_UNKNOWN = -1
_MAX_CYCLES = 10_000_000


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

#: One lowered trace entry:
#: ``(unit, dest, srcs, is_branch, taken, is_vector, vl, uses_bus, is_cond)``
#: where ``unit`` indexes :data:`UNITS`, ``dest`` is a register id or
#: -1, ``srcs`` is a tuple of register ids (implicit vector-length reads
#: included), ``uses_bus`` mirrors the scoreboard's result-bus test
#: (scalar A/B/S/T destination), and ``is_cond`` marks conditional
#: branches (which wait on an A0 instance in the RUU/Tomasulo machines;
#: unconditional branches resolve without reading a register).
Op = Tuple[int, int, Tuple[int, ...], bool, bool, bool, int, bool, bool]


@dataclass(frozen=True)
class CompiledTrace:
    """A trace lowered to flat per-instruction integer tuples.

    Machine- and config-independent: latencies and pipelining are
    resolved per :class:`~repro.core.config.MachineConfig` at simulation
    time from 12-entry per-unit tables, so one compilation serves every
    machine variant.

    ``regions`` marks where the trace is one loop body repeated: the
    period scan of :func:`compile_trace` proposes a period from the
    distance between two entries of the same static instruction and
    keeps a run only while every op equals the op one period back.
    Fuzzed and seeded generator traces have none.

    ``derived`` is the memo of every analysis built from the compiled
    trace alone (:func:`per_trace`); it takes no part in equality and
    dies with the compiled trace.
    """

    name: str
    n: int
    ops: Tuple[Op, ...]
    has_vector: bool
    #: Periodic regions as ``(start, period, end)`` triples, in trace
    #: order and disjoint: ``ops[s] == ops[s - period]`` for every ``s``
    #: in ``[start + period, end)``, at least :data:`_MIN_BODIES` bodies
    #: long, with ``start`` just after a taken branch when the body has
    #: one (so out-of-order fetch buffers start on body boundaries).  The
    #: RUU and out-of-order loops fast-forward whole periods inside them.
    regions: Tuple[Tuple[int, int, int], ...]
    #: ``(builder, *params) -> value`` for each :func:`per_trace`
    #: analysis built so far (fresh on every instance, ``replace`` too).
    derived: Dict[tuple, Any] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )


#: Compile results keyed by ``id(trace)``; the paired weak reference
#: both validates the key (id reuse after garbage collection) and evicts
#: the entry when the trace dies.
_CACHE: Dict[int, Tuple["weakref.ref[Trace]", CompiledTrace]] = {}

#: Compile-cache counters; replay run counters live in
#: :mod:`repro.core.fastpath.backends` (the combined view is
#: ``fastpath.stats()``).
_STATS = {
    "compiles": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "evictions": 0,
}


def reset_compile_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


#: Fewest loop bodies a periodic region must cover.
_MIN_BODIES = 4


def _region(ops, start, period, end) -> Optional[Tuple[int, int, int]]:
    """The run ``[start, end)`` of *period* as a region, its start moved
    to just after its first taken branch, or None if it then covers
    fewer than :data:`_MIN_BODIES` bodies."""
    for index in range(start, min(start + period, end)):
        op = ops[index]
        if op[3] and op[4]:
            start = index + 1
            break
    if end - start < _MIN_BODIES * period:
        return None
    return (start, period, end)


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower *trace* to flat integer tuples (cached per trace object)."""
    key = id(trace)
    hit = _CACHE.get(key)
    if hit is not None and hit[0]() is trace:
        _STATS["cache_hits"] += 1
        return hit[1]
    _STATS["cache_misses"] += 1

    file_offsets = _FILE_OFFSETS
    unit_index = _UNIT_INDEX
    ops: List[Op] = []
    has_vector = False
    # Period scan state: the latest seq of each static instruction, the
    # current run's period (0: none) and first seq, and the end of the
    # last region kept (regions never overlap).
    last_at: Dict[int, int] = {}
    regions: List[Tuple[int, int, int]] = []
    period = 0
    run_start = 0
    floor = 0
    for seq, entry in enumerate(trace.entries):
        instr = entry.instruction
        unit = unit_index[instr.unit]
        dest = instr.dest
        if dest is None:
            dest_id = -1
            uses_bus = False
        else:
            dest_id = file_offsets[dest.file] + dest.index
            uses_bus = dest.is_address or dest.is_scalar
        srcs = tuple(
            file_offsets[src.file] + src.index
            for src in instr.source_registers
        )
        is_vector = instr.is_vector
        if is_vector:
            has_vector = True
            uses_bus = False
            vl = entry.vector_length or 0
        else:
            vl = 0
        is_branch = instr.is_branch
        taken = bool(entry.taken) if is_branch else False
        is_cond = instr.is_conditional_branch if is_branch else False
        op = (unit, dest_id, srcs, is_branch, taken, is_vector, vl, uses_bus,
              is_cond)
        ops.append(op)

        static = entry.static_index
        previous = last_at.get(static)
        last_at[static] = seq
        if period and ops[seq - period] == op and (
            previous is None
            or seq - previous >= period
            or ops[previous] != op
        ):
            continue  # the run goes on (no shorter, inner-loop period)
        if period:
            region = _region(ops, run_start, period, seq)
            if region is not None:
                regions.append(region)
                floor = seq
            period = 0
        if previous is not None and ops[previous] == op:
            period = seq - previous
            run_start = previous if previous > floor else floor
    if period:
        region = _region(ops, run_start, period, len(ops))
        if region is not None:
            regions.append(region)

    compiled = CompiledTrace(
        name=trace.name, n=len(ops), ops=tuple(ops), has_vector=has_vector,
        regions=tuple(regions),
    )
    _STATS["compiles"] += 1

    def _evict(_ref: object, _key: int = key) -> None:
        if _CACHE.pop(_key, None) is not None:
            _STATS["evictions"] += 1

    _CACHE[key] = (weakref.ref(trace, _evict), compiled)
    return compiled


def per_trace(build: Callable) -> Callable:
    """Memoise ``build(compiled, *params)`` in ``compiled.derived``.

    The key is the builder and its positional parameters, so one
    compiled trace holds at most one value per (analysis, parameters)
    and every replay of the trace shares it.  Whoever knows a trace is
    done with may drop its analyses early with ``derived.clear()``; the
    next call rebuilds them.
    """

    @functools.wraps(build)
    def memoised(compiled: CompiledTrace, *params: Any):
        key = (build, *params)
        derived = compiled.derived
        value = derived.get(key)
        if value is None:
            value = derived[key] = build(compiled, *params)
        return value

    return memoised


@per_trace
def unit_profile(
    compiled: CompiledTrace,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """Per-unit ``(non-branch ops, vector-length sum, branch ops)``.

    The telemetry closed forms use this to turn "cycles each unit was
    busy" into per-unit arithmetic: for machines whose per-op busy span
    is ``latency (+ vector length)`` for non-branches and the branch
    latency for branches, total busy per unit is
    ``count*latency + vl_sum`` plus ``branches*branch_latency`` --
    config-dependent only through the latency tables, so the counts are
    memoised on the compiled trace.
    """
    n_units = len(UNITS)
    counts = [0] * n_units
    vl_sums = [0] * n_units
    branches = [0] * n_units
    for unit, _d, _s, is_branch, _t, _v, vl, _b, _c in compiled.ops:
        if is_branch:
            branches[unit] += 1
        else:
            counts[unit] += 1
            vl_sums[unit] += vl

    return (tuple(counts), tuple(vl_sums), tuple(branches))


@per_trace
def window_stats(
    compiled: CompiledTrace, units: int
) -> Tuple[Dict[int, int], int, int]:
    """``(occupancy histogram, flushes, flush cycles)`` for a fetch
    window of *units* slots.

    The windowed machines (in-order and out-of-order multiple issue)
    fill fetch buffers of up to *units* instructions, cut after the
    first taken branch -- a pure function of the compiled ``taken``
    flags, independent of the machine config, so the telemetry loops
    share one walk per (trace, width), memoised on the compiled trace,
    instead of recounting buffers on every replay.  A taken-branch cut
    flushes the unfilled remainder of the buffer (possibly zero slots),
    matching the reference loops' FLUSH events.
    """
    ops = compiled.ops
    n = compiled.n
    occupancy: Dict[int, int] = {}
    flushes = 0
    flush_cycles = 0
    pos = 0
    while pos < n:
        end = pos + units
        if end > n:
            end = n
        length = 0
        cut = False
        for index in range(pos, end):
            length += 1
            op = ops[index]
            if op[3] and op[4]:
                cut = True
                break
        occupancy[length] = occupancy.get(length, 0) + 1
        if cut:
            flushes += 1
            flush_cycles += units - length
        pos += length

    return (occupancy, flushes, flush_cycles)


def _unit_tables(
    config: MachineConfig, fu_pipelined: bool, memory_interleaved: bool
) -> Tuple[List[int], List[bool]]:
    """Per-unit latency and pipelining tables for one (machine, config)."""
    table = config.latencies
    latencies = [table.latency(unit) for unit in UNITS]
    pipelined = []
    for index, latency in enumerate(latencies):
        if index == _MEMORY:
            pipelined.append(memory_interleaved)
        elif index == _BRANCH:
            pipelined.append(True)  # branch spacing is modelled separately
        else:
            pipelined.append(fu_pipelined or latency <= 1)
    return latencies, pipelined


#: Per-instruction (issue, complete) pairs, matching the cycles the
#: reference loop's events give (``obs.events.schedule_from_events``).
Schedule = List[Tuple[int, int]]
