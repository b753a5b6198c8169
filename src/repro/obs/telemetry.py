"""Aggregate simulation telemetry: attribution without per-cycle events.

The paper's limit-study methodology is about *attribution* -- which
resource (functional-unit conflicts, result-bus contention, window
occupancy, dependency wait) ate the cycles.  Per-instruction events
come only from the reference loops (``simulate_observed``), so an
attribution built on events could be fast or observable, never both.

:class:`SimTelemetry` closes the gap.  It is a closed-form, aggregate
record -- stall cycles by reason, per-functional-unit busy cycles, an
issue-width histogram, a window/RUU occupancy histogram, flush counts --
that the compiled fast loops fill from their integer ready-cycle arrays
with O(instructions) extra work and attach to
:attr:`repro.core.result.SimulationResult.detail` as flat ``tlm.*``
float entries.  No event objects are allocated and the loops' issue
timing is untouched; the cost is a few integer updates per instruction,
always paid: every fast loop collects telemetry, so a cached result
record carries the same ``tlm.*`` fields as a fresh one.

The reference loops are left exactly as they are -- verbatim, with only
their event plumbing.  :func:`telemetry_from_events` derives the *same*
record from a reference replay's event stream, which turns telemetry
into a differential-test contract exactly like cycle counts: the fuzzed
suite in ``tests/test_obs_telemetry.py`` and the oracle's optional
telemetry check assert ``fast-loop telemetry == event-derived
telemetry`` bit-for-bit.

Detail-key encoding (all values are integral floats)::

    tlm.instructions   dynamic instruction count
    tlm.cycles         total cycles (same as the result's cycle count)
    tlm.flushes        discarded-fetch events (taken-branch buffer cuts)
    tlm.flush_cycles   total issue slots lost to those flushes
    tlm.stall.<REASON> cycles lost per stall reason (RAW, WAW, UNIT,
                       BUS, BRANCH, RUU_FULL, STATIONS_FULL, ...)
    tlm.fu.<UNIT>      busy/occupied cycles per functional unit
    tlm.width.<k>      cycles on which exactly k instructions issued
    tlm.occ.<k>        cycles (or fetch buffers) at occupancy k
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from .events import EventKind, SimEvent

__all__ = [
    "SimTelemetry",
    "TELEMETRY_PREFIX",
    "strip_telemetry",
    "telemetry_from_events",
]

#: Prefix under which telemetry entries ride in ``SimulationResult.detail``.
TELEMETRY_PREFIX = "tlm."

def _clean(mapping: Mapping) -> Dict:
    """Normalised copy: int values, zero-valued entries dropped.

    Both producers (closed-form fast loops, the event reducer) funnel
    through :class:`SimTelemetry`, so normalising here is what makes
    ``==`` a meaningful differential check -- a reducer that touches a
    key with a zero total and a closed form that never creates it must
    still compare equal.
    """
    if not mapping:
        return {}
    return {key: int(value) for key, value in mapping.items() if value}


#: Flattened detail keys for the default prefix, built lazily: the fast
#: loops call :meth:`SimTelemetry.to_detail` once per replay, and the
#: key alphabet (stall reasons, unit names, small widths/levels) is tiny,
#: so interned lookups beat re-formatting the same f-strings every call.
_DETAIL_KEYS: Dict[str, Dict[object, str]] = {
    "stall.": {}, "fu.": {}, "width.": {}, "occ.": {},
}


def _detail_key(section: str, token: object) -> str:
    cache = _DETAIL_KEYS[section]
    key = cache.get(token)
    if key is None:
        key = f"{TELEMETRY_PREFIX}{section}{token}"
        cache[token] = key
    return key


@dataclass(frozen=True)
class SimTelemetry:
    """Aggregate attribution for one (trace, machine, config) replay.

    Attributes:
        instructions: dynamic instructions issued.
        cycles: total cycles (the result's cycle count).
        stall_cycles: issue cycles lost per stall reason, in the
            emitting machine's vocabulary (see :mod:`repro.obs.events`).
        fu_busy_cycles: cycles each functional unit was busy/occupied,
            keyed by :class:`~repro.isa.functional_units.FunctionalUnit`
            name.  For the buffered machines this spans dispatch to
            result/commit (matching the ISSUE..COMPLETE event window).
        issue_width: histogram of instructions issued per issuing cycle
            (``{k: cycles on which exactly k issued}``; idle cycles are
            not counted).
        occupancy: occupancy histogram where the machine has a window:
            RUU entries live per cycle (RUU machines) or instructions
            per fetch buffer (multi-issue window machines); empty for
            the single-issue and reservation-station machines.
        flushes: discarded-fetch events (taken-branch buffer cuts,
            mispredict recoveries).
        flush_cycles: total issue slots lost to those flushes.
    """

    instructions: int
    cycles: int
    stall_cycles: Mapping[str, int] = field(default_factory=dict)
    fu_busy_cycles: Mapping[str, int] = field(default_factory=dict)
    issue_width: Mapping[int, int] = field(default_factory=dict)
    occupancy: Mapping[int, int] = field(default_factory=dict)
    flushes: int = 0
    flush_cycles: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "stall_cycles", _clean(self.stall_cycles))
        object.__setattr__(
            self, "fu_busy_cycles", _clean(self.fu_busy_cycles)
        )
        object.__setattr__(self, "issue_width", _clean(self.issue_width))
        object.__setattr__(self, "occupancy", _clean(self.occupancy))

    @property
    def stall_cycles_total(self) -> int:
        return sum(self.stall_cycles.values())

    @property
    def bus_contention_cycles(self) -> int:
        """Cycles lost to result-bus conflicts (the paper's Section 6)."""
        return self.stall_cycles.get("BUS", 0)

    def to_detail(
        self, prefix: str = TELEMETRY_PREFIX
    ) -> Dict[str, float]:
        """Flatten to ``SimulationResult.detail`` entries."""
        detail: Dict[str, float] = {
            prefix + "instructions": float(self.instructions),
            prefix + "cycles": float(self.cycles),
        }
        if self.flushes:
            detail[prefix + "flushes"] = float(self.flushes)
        if self.flush_cycles:
            detail[prefix + "flush_cycles"] = float(self.flush_cycles)
        if prefix == TELEMETRY_PREFIX:
            key = _detail_key
            for reason, cycles in self.stall_cycles.items():
                detail[key("stall.", reason)] = float(cycles)
            for unit, cycles in self.fu_busy_cycles.items():
                detail[key("fu.", unit)] = float(cycles)
            for width, count in self.issue_width.items():
                detail[key("width.", width)] = float(count)
            for level, count in self.occupancy.items():
                detail[key("occ.", level)] = float(count)
            return detail
        for reason, cycles in self.stall_cycles.items():
            detail[f"{prefix}stall.{reason}"] = float(cycles)
        for unit, cycles in self.fu_busy_cycles.items():
            detail[f"{prefix}fu.{unit}"] = float(cycles)
        for width, count in self.issue_width.items():
            detail[f"{prefix}width.{width}"] = float(count)
        for level, count in self.occupancy.items():
            detail[f"{prefix}occ.{level}"] = float(count)
        return detail

    @classmethod
    def from_detail(
        cls,
        detail: Optional[Mapping[str, float]],
        prefix: str = TELEMETRY_PREFIX,
    ) -> Optional["SimTelemetry"]:
        """Recover the record from flattened detail entries.

        Returns ``None`` when *detail* carries no telemetry (reference
        results).
        """
        if not detail or prefix + "instructions" not in detail:
            return None
        stall: Dict[str, int] = {}
        busy: Dict[str, int] = {}
        width: Dict[int, int] = {}
        occupancy: Dict[int, int] = {}
        plen = len(prefix)
        for key, value in detail.items():
            if not key.startswith(prefix):
                continue
            tail = key[plen:]
            if tail.startswith("stall."):
                stall[tail[6:]] = int(value)
            elif tail.startswith("fu."):
                busy[tail[3:]] = int(value)
            elif tail.startswith("width."):
                width[int(tail[6:])] = int(value)
            elif tail.startswith("occ."):
                occupancy[int(tail[4:])] = int(value)
        grab = lambda name: int(detail.get(prefix + name, 0))  # noqa: E731
        return cls(
            instructions=grab("instructions"),
            cycles=grab("cycles"),
            stall_cycles=stall,
            fu_busy_cycles=busy,
            issue_width=width,
            occupancy=occupancy,
            flushes=grab("flushes"),
            flush_cycles=grab("flush_cycles"),
        )


def strip_telemetry(
    detail: Optional[Mapping[str, float]],
    prefix: str = TELEMETRY_PREFIX,
) -> Dict[str, float]:
    """*detail* without its telemetry entries (for comparisons against
    reference results, which never carry any)."""
    if not detail:
        return {}
    return {
        key: value
        for key, value in detail.items()
        if not key.startswith(prefix)
    }


# ----------------------------------------------------------------------
# The event-stream reducer: the reference loops' side of the contract
# ----------------------------------------------------------------------

def telemetry_from_events(
    events: Iterable[SimEvent],
    *,
    trace,
    cycles: int,
    family: Optional[str] = None,
    issue_units: int = 0,
) -> SimTelemetry:
    """Fold a reference replay's event stream into a :class:`SimTelemetry`.

    This is the reducer half of the differential contract: the fast
    loops compute the record in closed form from their integer state;
    this function derives the identical record from the ISSUE / STALL /
    COMPLETE / FLUSH events each machine's event-emitting loop
    (``_simulate``, observed through ``simulate_observed``) emits.
    *cycles* is the reference result's cycle count; *family* is
    the fast-path family name (:func:`repro.core.fastpath.family_of`),
    which selects the occupancy reconstruction; *issue_units* is the
    fetch-buffer width for the windowed (in-order / out-of-order)
    machines.

    Occupancy is the one component that needs more than the stream:

    * the RUU machines' per-cycle occupancy is rebuilt with a
      difference array over the dispatch (ISSUE) and commit (COMPLETE)
      cycles of every buffered instruction, walked over every cycle the
      reference loop visited;
    * the windowed machines' per-buffer fill is a pure function of the
      compiled taken flags and the issue width, recomputed here exactly
      as the reference cuts its fetch buffers;
    * the remaining families have no window and report none.
    """
    from ..core.fastpath.ir import UNITS, compile_trace

    compiled = compile_trace(trace)
    ops = compiled.ops

    stall: Dict[str, int] = {}
    issues: Dict[int, int] = {}
    completes: Dict[int, int] = {}
    per_cycle: Dict[int, int] = {}
    flushes = 0
    flush_cycles = 0
    for event in events:
        kind = event.kind
        if kind is EventKind.ISSUE:
            if event.seq not in issues:
                issues[event.seq] = event.cycle
                per_cycle[event.cycle] = per_cycle.get(event.cycle, 0) + 1
        elif kind is EventKind.COMPLETE:
            if event.seq not in completes:
                completes[event.seq] = event.cycle
        elif kind is EventKind.STALL:
            stall[event.reason] = stall.get(event.reason, 0) + event.cycles
        elif kind is EventKind.FLUSH:
            flushes += 1
            flush_cycles += event.cycles

    busy: Dict[str, int] = {}
    for seq, complete in completes.items():
        issue = issues.get(seq)
        if issue is None:
            continue
        name = UNITS[ops[seq][0]].name
        busy[name] = busy.get(name, 0) + (complete - issue)

    width: Dict[int, int] = {}
    for count in per_cycle.values():
        width[count] = width.get(count, 0) + 1

    occupancy: Dict[int, int] = {}
    if family in ("ruu", "spec"):
        # Difference array over dispatch/commit; the reference loop
        # visits every cycle from 0 through the last event cycle.
        delta: Dict[int, int] = {}
        horizon = 0
        for seq, complete in completes.items():
            issue = issues.get(seq)
            if issue is None:
                continue
            delta[issue] = delta.get(issue, 0) + 1
            delta[complete] = delta.get(complete, 0) - 1
        for cycle in issues.values():
            if cycle > horizon:
                horizon = cycle
        for cycle in completes.values():
            if cycle > horizon:
                horizon = cycle
        live = 0
        for cycle in range(horizon + 1):
            live += delta.get(cycle, 0)
            occupancy[live] = occupancy.get(live, 0) + 1
    elif family in ("inorder", "ooo") and issue_units > 0:
        # Fetch-buffer fills: up to issue_units entries, cut after the
        # first taken branch -- config-independent, so recomputed from
        # the compiled flags exactly as the reference cuts them.
        n = compiled.n
        pos = 0
        while pos < n:
            end = pos + issue_units
            if end > n:
                end = n
            length = 0
            for index in range(pos, end):
                length += 1
                op = ops[index]
                if op[3] and op[4]:
                    break
            occupancy[length] = occupancy.get(length, 0) + 1
            pos += length

    return SimTelemetry(
        instructions=compiled.n,
        cycles=cycles,
        stall_cycles=stall,
        fu_busy_cycles=busy,
        issue_width=width,
        occupancy=occupancy,
        flushes=flushes,
        flush_cycles=flush_cycles,
    )
