"""Stall attribution: where do the issue cycles go?

For an issue-blocking machine every cycle in which no instruction issues
is attributable to exactly one binding constraint (the one that set the
blocked instruction's issue time): a RAW or WAW register hazard, a busy
functional unit, a result-bus conflict, or an unresolved branch.  This
module aggregates those attributions into a breakdown -- the
quantitative version of the paper's Section 6 discussion of what limits
each organisation.

The breakdown reads the aggregate :class:`~repro.obs.telemetry.
SimTelemetry` record the compiled fast loops attach to every result --
one plain ``simulate`` call, no event stream, fast-path speed.  When the
machine has no fast loop (or the fast path is disabled) it replays
through the typed event stream instead (:mod:`repro.obs.events`,
adapted into per-instruction :class:`repro.core.scoreboard.IssueRecord`
entries) and keeps that schedule in :attr:`StallBreakdown.records`;
both routes attribute the same cycles.  For a per-cycle view use
:func:`repro.analysis.timeline.record_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import MachineConfig
from ..core.scoreboard import (
    EventRecorder,
    IssueRecord,
    ScoreboardMachine,
    StallReason,
    cray_like_machine,
)
from ..obs.telemetry import SimTelemetry
from ..trace import Trace

@dataclass(frozen=True)
class StallBreakdown:
    """Aggregated stall attribution for one trace on one machine.

    Attributes:
        trace_name: the analysed benchmark.
        machine: simulator name.
        config: machine variant.
        total_cycles: total execution cycles.
        issue_cycles: cycles in which an instruction issued.
        stalled_by: idle issue cycles attributed to each reason.
        records: the per-instruction schedule (in trace order); empty
            when the breakdown came from aggregate telemetry rather
            than an event replay.
    """

    trace_name: str
    machine: str
    config: MachineConfig
    total_cycles: int
    issue_cycles: int
    stalled_by: Dict[StallReason, int]
    records: List[IssueRecord] = field(repr=False, default_factory=list)

    @property
    def stall_cycles(self) -> int:
        return sum(self.stalled_by.values())

    def fraction(self, reason: StallReason) -> float:
        """Share of total cycles lost to *reason*."""
        return self.stalled_by.get(reason, 0) / self.total_cycles

    def render(self) -> str:
        """Human-readable breakdown."""
        lines = [
            f"{self.trace_name} on {self.machine} [{self.config.name}]: "
            f"{self.issue_cycles} issue cycles / {self.total_cycles} total"
        ]
        for reason in StallReason:
            cycles = self.stalled_by.get(reason, 0)
            if reason is StallReason.NONE or cycles == 0:
                continue
            lines.append(
                f"  {reason.value:<38} {cycles:>7} cycles "
                f"({cycles / self.total_cycles:.1%})"
            )
        return "\n".join(lines)


def _breakdown_from_telemetry(
    trace: Trace,
    config: MachineConfig,
    machine: ScoreboardMachine,
) -> Optional[StallBreakdown]:
    """The breakdown from aggregate telemetry, or None when unavailable."""
    result = machine.simulate(trace, config)
    telemetry = SimTelemetry.from_detail(result.detail)
    if telemetry is None:
        return None
    if not all(
        name in StallReason.__members__ for name in telemetry.stall_cycles
    ):
        return None
    return StallBreakdown(
        trace_name=trace.name,
        machine=machine.name,
        config=config,
        total_cycles=result.cycles,
        issue_cycles=sum(telemetry.issue_width.values()),
        stalled_by={
            StallReason[name]: cycles
            for name, cycles in telemetry.stall_cycles.items()
        },
        records=[],
    )


def stall_breakdown(
    trace: Trace,
    config: MachineConfig,
    machine: Optional[ScoreboardMachine] = None,
) -> StallBreakdown:
    """Attribute every idle issue cycle of *trace* on *machine*.

    Args:
        trace: the dynamic trace to analyse.
        config: memory/branch variant.
        machine: any :class:`ScoreboardMachine`; defaults to CRAY-like.
    """
    machine = machine or cray_like_machine()
    breakdown = _breakdown_from_telemetry(trace, config, machine)
    if breakdown is not None:
        return breakdown

    records: List[IssueRecord] = []
    result = machine.simulate_observed(
        trace, config, EventRecorder(records.append)
    )

    stalled: Dict[StallReason, int] = {}
    for record in records:
        if record.stall_cycles:
            stalled[record.stall] = (
                stalled.get(record.stall, 0) + record.stall_cycles
            )

    return StallBreakdown(
        trace_name=trace.name,
        machine=machine.name,
        config=config,
        total_cycles=result.cycles,
        issue_cycles=len(records),
        stalled_by=stalled,
        records=records,
    )
