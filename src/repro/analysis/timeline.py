"""Text pipeline timelines (Gantt diagrams) for issue schedules.

Renders a window of a recorded schedule as the classic pipeline diagram:
one row per instruction, one column per cycle, ``I`` at issue, ``=``
while the operation is in a functional unit, ``*`` at completion.
Useful for eyeballing exactly why a loop body stalls.

The schedule is the ``record=`` list of the machine's compiled loop
(:data:`repro.core.fastpath.python_backend.FAMILY_LOOPS`): one
``(issue, complete)`` pair per instruction, indexed by seq -- the same
pairs the reference loop's events give
(:func:`repro.obs.events.schedule_from_events`; the differential tests
and the oracle's ``fastpath-dual`` check hold the two equal).
"""

from __future__ import annotations

from typing import Optional

from ..core.base import CompiledSimulator
from ..core.config import MachineConfig
from ..core.fastpath.ir import Schedule
from ..core.fastpath.python_backend import FAMILY_LOOPS
from ..core.scoreboard import cray_like_machine
from ..trace import Trace


def record_schedule(
    trace: Trace,
    config: MachineConfig,
    machine: Optional[CompiledSimulator] = None,
) -> Schedule:
    """Per-instruction ``(issue, complete)`` pairs for *trace* on
    *machine* (CRAY-like by default), from its compiled loop."""
    machine = machine or cray_like_machine()
    schedule: Schedule = []
    FAMILY_LOOPS[machine.family](machine, trace, config, schedule)
    return schedule


def render_timeline(
    trace: Trace,
    schedule: Schedule,
    *,
    first: int = 0,
    count: int = 20,
    max_width: int = 100,
) -> str:
    """Render instructions ``[first, first+count)`` as a pipeline diagram.

    Args:
        trace: the trace the schedule came from (for disassembly).
        schedule: ``(issue, complete)`` pairs by seq, from
            :func:`record_schedule`.
        first: first dynamic instruction to show.
        count: how many instructions to show.
        max_width: clip the cycle axis to this many columns.
    """
    window = schedule[first : first + count]
    if not window:
        raise ValueError(f"empty window [{first}, {first + count})")

    origin = min(issue for issue, _ in window)
    span = max(complete for _, complete in window) - origin + 1
    span = min(span, max_width)

    header_label = f"cycle {origin} +"
    lines = [f"{'':<36}{header_label}"]
    axis = "".join(str((origin + c) % 10) for c in range(span))
    lines.append(f"{'':<36}{axis}")

    for seq, (issue, complete) in enumerate(window, first):
        instr = trace[seq].instruction
        label = f"{seq:>5}  {str(instr).split(';')[0].strip():<27}"
        row = [" "] * span
        issue_col = issue - origin
        if 0 <= issue_col < span:
            row[issue_col] = "I"
        for cycle in range(issue + 1, complete):
            col = cycle - origin
            if 0 <= col < span:
                row[col] = "="
        done_col = complete - origin
        if 0 <= done_col < span:
            row[done_col] = "*"
        lines.append(f"{label[:35]:<36}{''.join(row)}")
    return "\n".join(lines)
