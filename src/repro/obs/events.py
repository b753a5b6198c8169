"""Typed simulator events: one observation channel for every machine.

Every timing simulator with an event-emitting reference loop
(:mod:`repro.core`) passes :class:`SimEvent` records to the callback of
:meth:`repro.core.base.Simulator.simulate_observed` as the model makes
issue decisions:

====================  ==================================================
kind                  meaning
====================  ==================================================
:attr:`EventKind.ISSUE`     an instruction issued (``cycle`` = issue cycle)
:attr:`EventKind.STALL`     issue was delayed (``reason`` names the binding
                            constraint, ``cycles`` how many cycles were lost)
:attr:`EventKind.COMPLETE`  an instruction's result (or branch resolution)
                            became available / the instruction retired
:attr:`EventKind.FLUSH`     fetched work was discarded (taken-branch buffer
                            flush, branch misprediction recovery)
====================  ==================================================

:class:`SimEvent` is a :class:`typing.NamedTuple`: frozen, typed, and
built in under half the time a frozen dataclass takes, which matters
because an observed campaign builds one per issue, stall, completion
and flush.  Any callable that takes one event works as the callback:
an :class:`EventCollector`, a function, or a bound ``list.append``
(what :func:`repro.verify.invariants.observe` passes, so that each event
costs one C-level append).

An unobserved reference replay pays a single ``if emit is not None``
test per instruction in each model's loop -- benchmarked at well under
2% overhead (``benchmarks/bench_hooks.py`` gates this in CI) -- and
issue timing is bit-identical either way (the event plumbing never
feeds back into the model).  Plain ``simulate`` calls take the compiled
fast loops, which emit no events.

``reason`` strings are the emitting machine's vocabulary: the scoreboard
uses :class:`repro.core.scoreboard.StallReason` names (``"RAW"``,
``"WAW"``, ``"UNIT"``, ``"BUS"``, ``"BRANCH"``); the buffered machines
add ``"RUU_FULL"``, ``"STATIONS_FULL"``, ``"TAKEN_BRANCH"`` and
``"MISPREDICT"``.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

__all__ = [
    "EventCallback",
    "EventCollector",
    "EventKind",
    "SimEvent",
    "schedule_from_events",
    "tee",
]


class EventKind(enum.Enum):
    """What happened."""

    ISSUE = "issue"
    STALL = "stall"
    COMPLETE = "complete"
    FLUSH = "flush"


class SimEvent(NamedTuple):
    """One observation from a timing model (a frozen named tuple).

    Attributes:
        kind: the event type.
        seq: dynamic instruction index the event refers to (-1 for
            machine-level events with no single instruction).
        cycle: the cycle the event refers to (issue cycle for ISSUE,
            availability cycle for COMPLETE, the delayed issue cycle for
            STALL, the flush cycle for FLUSH).
        reason: stall/flush cause (empty for ISSUE/COMPLETE).
        cycles: duration in cycles where meaningful (cycles lost for
            STALL); 0 otherwise.
    """

    kind: EventKind
    seq: int
    cycle: int
    reason: str = ""
    cycles: int = 0


#: The callback ``Simulator.simulate_observed`` passes events to.
EventCallback = Callable[[SimEvent], None]


class EventCollector:
    """The simplest consumer: keep every event, count by kind."""

    def __init__(self) -> None:
        self.events: List[SimEvent] = []

    def __call__(self, event: SimEvent) -> None:
        self.events.append(event)

    def counts(self) -> Dict[EventKind, int]:
        by_kind: Dict[EventKind, int] = {}
        for event in self.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        return by_kind

    def of_kind(self, kind: EventKind) -> Tuple[SimEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)

    def cycles_by_seq(self, kind: EventKind) -> Dict[int, int]:
        """seq -> cycle of the *first* event of *kind* for that seq.

        The per-seq timeline most consumers want; duplicate events for a
        seq keep the first cycle, as in :func:`schedule_from_events`.
        """
        cycles: Dict[int, int] = {}
        for event in self.events:
            if event.kind is kind and event.seq not in cycles:
                cycles[event.seq] = event.cycle
        return cycles

    def stall_cycles_by_reason(self) -> Dict[str, int]:
        """Total cycles lost per stall reason (Section 6 style)."""
        totals: Dict[str, int] = {}
        for event in self.events:
            if event.kind is EventKind.STALL:
                totals[event.reason] = (
                    totals.get(event.reason, 0) + event.cycles
                )
        return totals


def tee(*callbacks: EventCallback) -> EventCallback:
    """Fan one event stream out to several consumers."""
    live = [cb for cb in callbacks if cb is not None]
    if len(live) == 1:
        return live[0]

    def fanout(event: SimEvent) -> None:
        for callback in live:
            callback(event)

    return fanout


def schedule_from_events(
    events: Iterable[SimEvent],
    length: int,
    *,
    branch_latency: int,
    predicted: bool = False,
) -> List[Tuple[Optional[int], Optional[int]]]:
    """Per-instruction ``(issue, resolution)`` pairs from one replay.

    This is the schedule a compiled fast loop writes into its ``record``
    list (:mod:`repro.core.fastpath`), rebuilt from the event stream of
    the same machine's event-emitting loop, so the two can be compared
    entry by entry.  *length* is the trace length.  The resolution is
    the instruction's first COMPLETE cycle.  The branches of the
    buffered and speculative machines get no COMPLETE; they resolve at
    issue plus the ``MISPREDICT`` FLUSH window when mispredicted, at
    issue + 1 when a branch predictor is on (*predicted*), and at issue
    + *branch_latency* otherwise.  A seq with no ISSUE event gets
    ``None`` for its issue cycle.
    """
    issues: Dict[int, int] = {}
    completes: Dict[int, int] = {}
    windows: Dict[int, int] = {}
    issue_kind, complete_kind = EventKind.ISSUE, EventKind.COMPLETE
    for kind, seq, cycle, reason, cycles in events:
        if kind is issue_kind:
            if seq not in issues:
                issues[seq] = cycle
        elif kind is complete_kind:
            if seq not in completes:
                completes[seq] = cycle
        elif kind is EventKind.FLUSH and reason == "MISPREDICT":
            windows.setdefault(seq, cycles)
    resolve_after = 1 if predicted else branch_latency
    schedule: List[Tuple[Optional[int], Optional[int]]] = []
    for seq in range(length):
        issue = issues.get(seq)
        resolution = completes.get(seq)
        if resolution is None and issue is not None:
            resolution = issue + windows.get(seq, resolve_after)
        schedule.append((issue, resolution))
    return schedule
