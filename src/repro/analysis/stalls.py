"""Stall attribution: where do the issue cycles go?

For an issue-blocking machine every cycle in which no instruction issues
is attributable to exactly one binding constraint (the one that set the
blocked instruction's issue time): a RAW or WAW register hazard, a busy
functional unit, a result-bus conflict, or an unresolved branch.  This
module aggregates those attributions into a breakdown -- the
quantitative version of the paper's Section 6 discussion of what limits
each organisation.

The breakdown reads the aggregate :class:`~repro.obs.telemetry.
SimTelemetry` record the machine's compiled loop attaches to its result
-- the same loop call :func:`repro.core.fastpath.batch.sweep` makes, so
the answer does not depend on ``REPRO_FASTPATH``.  The compiled loops
are proved equal to the reference loops by ``tests/test_fastpath_diff.py``
and the oracle's ``fastpath-dual`` check; per-instruction attribution
lives in the reference loop's STALL events
(:meth:`~repro.core.base.Simulator.simulate_observed`).  For a per-cycle
view use :func:`repro.analysis.timeline.record_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.base import CompiledSimulator
from ..core.config import MachineConfig
from ..core.fastpath.python_backend import FAMILY_LOOPS
from ..core.scoreboard import StallReason, cray_like_machine
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
    """

    trace_name: str
    machine: str
    config: MachineConfig
    total_cycles: int
    issue_cycles: int
    stalled_by: Dict[StallReason, int]

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


def stall_breakdown(
    trace: Trace,
    config: MachineConfig,
    machine: Optional[CompiledSimulator] = None,
) -> StallBreakdown:
    """Attribute every idle issue cycle of *trace* on *machine*.

    Args:
        trace: the dynamic trace to analyse.
        config: memory/branch variant.
        machine: a machine whose stall reasons are
            :class:`StallReason` names (the scoreboard family);
            defaults to CRAY-like.

    Raises:
        ValueError: the machine's telemetry names a stall reason outside
            :class:`StallReason` (the RUU's ``RUU_FULL``, Tomasulo's
            ``STATIONS_FULL``).
    """
    machine = machine or cray_like_machine()
    result = FAMILY_LOOPS[machine.family](machine, trace, config)
    telemetry = SimTelemetry.from_detail(result.detail)
    unknown = sorted(
        set(telemetry.stall_cycles) - set(StallReason.__members__)
    )
    if unknown:
        raise ValueError(
            f"{machine.name} stalls on {', '.join(unknown)}, which stall "
            "attribution does not cover (it reads the scoreboard's reasons)"
        )
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
    )
