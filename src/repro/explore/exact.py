"""Exact verification of screened candidates via the fast-path sweep.

The screen is a closed-form approximation; this stage replays the few
candidates that matter -- predicted frontier, verification band, audit
sample -- through the real simulators and reports how good the
approximation was: per-candidate relative error, audit-sample mean/max
error, and frontier recall against an exhaustively simulated grid when
one is available.  The simulation itself is an ordinary experiment plan
run by :func:`repro.harness.engine.run_plan`: one sweep group per source
trace, one result-cache entry per (source, machine, config), shared with
the paper tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..harness.engine import PlanRun, run_plan
from ..harness.plans import Cell, ExperimentPlan
from ..harness.progress import ProgressCallback
from ..trace import DiskCache
from .screen import pareto_frontier

__all__ = ["ErrorStats", "frontier_recall", "simulate_specs"]

_RATE = ("rate",)


def simulate_specs(
    specs: Sequence[str],
    sources: Sequence[str],
    *,
    config: str = "M11BR5",
    workers: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> "tuple[Dict[str, float], PlanRun]":
    """Simulate every spec over every source; harmonic-mean rates.

    The plan has one row per machine spec and one rate cell per (spec,
    source), ordered source-major, so the engine's plan-order harmonic
    mean folds each spec's per-source rates in source order -- the
    aggregation of :func:`repro.explore.model.estimate_rates`, so
    predicted and simulated numbers are directly comparable.  *sources*
    must be normalised spec strings when *cache* is given (they key its
    segments).  Returns ``(spec -> aggregate issue rate, the plan run)``.
    """
    rows = tuple(dict.fromkeys(specs))
    plan = ExperimentPlan(
        table_id="explore",
        title="exact simulation of screened candidates",
        columns=_RATE,
        rows=rows,
        cells=tuple(
            Cell(
                source=source, machine=spec, config=config, row=spec,
                columns=_RATE,
            )
            for source in sources
            for spec in rows
        ),
    )
    run = run_plan(plan, workers=workers, cache=cache, progress=progress)
    return {row: values["rate"] for row, values in run.table.rows}, run


@dataclass(frozen=True)
class ErrorStats:
    """Model-vs-simulation error over one set of candidates."""

    count: int
    mean_relative: float
    max_relative: float

    @classmethod
    def from_pairs(
        cls, predicted: Sequence[float], simulated: Sequence[float]
    ) -> "ErrorStats":
        if not predicted:
            return cls(count=0, mean_relative=0.0, max_relative=0.0)
        errors = [
            abs(p - s) / s for p, s in zip(predicted, simulated)
        ]
        return cls(
            count=len(errors),
            mean_relative=sum(errors) / len(errors),
            max_relative=max(errors),
        )

    def to_payload(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_relative": self.mean_relative,
            "max_relative": self.max_relative,
        }


def frontier_recall(
    exhaustive_costs: Mapping[int, int],
    exhaustive_rates: Mapping[int, float],
    selected: Sequence[int],
) -> "tuple[float, List[int]]":
    """Fraction of the *true* frontier the screen put up for simulation.

    *exhaustive_costs*/*exhaustive_rates* map candidate index to its
    cost and exactly simulated rate; the true frontier is the Pareto
    frontier of those.  Recall is the fraction of true-frontier indices
    present in *selected* (the screen's frontier plus band).  Returns
    ``(recall, true frontier indices)``.
    """
    indices = sorted(exhaustive_costs)
    costs = np.array([exhaustive_costs[i] for i in indices], dtype=np.int64)
    rates = np.array(
        [exhaustive_rates[i] for i in indices], dtype=np.float64
    )
    true_frontier = [indices[i] for i in pareto_frontier(costs, rates)]
    if not true_frontier:
        return 1.0, true_frontier
    chosen = set(int(i) for i in selected)
    hit = sum(1 for index in true_frontier if index in chosen)
    return hit / len(true_frontier), true_frontier
