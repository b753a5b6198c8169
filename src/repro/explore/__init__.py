"""Design-space explorer: analytic pre-screen + exact frontier simulation.

Answering "what is the best machine under a hardware budget?" by
simulating every candidate is O(configs x trace replay); this package
replaces it with three stages:

1. **Model** (:mod:`repro.explore.model`): a closed-form issue-rate
   estimator per candidate, anchored between each trace's serial and
   pseudo-dataflow limits.
2. **Screen** (:mod:`repro.explore.space`, :mod:`repro.explore.screen`):
   expand a declarative space spec into 10^5-10^6 candidates and score
   them all vectorised, keeping the predicted Pareto frontier of
   (cost, rate) plus a bounded near-frontier band.
3. **Exact verification** (:mod:`repro.explore.exact`): simulate only
   the frontier, band and a seeded audit sample through the real
   machines, and report how wrong the model was (relative error,
   frontier recall against an exhaustively simulated grid).

:func:`explore` runs all three and returns an :class:`ExploreRun`;
``repro explore`` is the CLI face.  See ``docs/explore.md``.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import fastpath
from ..harness.engine import PlanRun, _fastpath_deltas
from ..harness.progress import ProgressCallback
from ..obs import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    current_git_sha,
    new_run_id,
    write_manifest,
)
from ..trace import DiskCache, default_cache_dir
from ..trace.diskcache import model_fingerprint
from .exact import ErrorStats, frontier_recall, simulate_specs
from .model import MODEL_VERSION, TraceAnchors, build_anchors, estimate_grid
from .screen import ScreenResult, screen_space
from .space import (
    CandidateGrid,
    DesignSpace,
    SpaceError,
    expand_space,
    parse_space,
)

__all__ = [
    "CandidateGrid",
    "DesignSpace",
    "ExplorePoint",
    "ExploreRun",
    "MODEL_VERSION",
    "ScreenResult",
    "SpaceError",
    "TraceAnchors",
    "build_anchors",
    "explore",
    "parse_space",
    "screen_space",
]

#: Exhaustive simulation is for verifying the screen on *small* grids;
#: above this size it would defeat the explorer's purpose.
_MAX_EXHAUSTIVE = 5000


@dataclass(frozen=True)
class ExplorePoint:
    """One candidate that went through exact simulation."""

    index: int
    spec: str
    cost: int
    predicted: float
    simulated: float

    @property
    def relative_error(self) -> float:
        return abs(self.predicted - self.simulated) / self.simulated

    def to_payload(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "spec": self.spec,
            "cost": self.cost,
            "predicted": self.predicted,
            "simulated": self.simulated,
            "relative_error": self.relative_error,
        }


@dataclass(frozen=True)
class ExploreRun:
    """A finished explore invocation: screen summary + verified frontier."""

    space_spec: str
    space: DesignSpace
    sources: Tuple[str, ...]
    config: str
    total_candidates: int
    screen_seconds: float
    screen_cached: bool
    frontier: Tuple[ExplorePoint, ...]
    band: Tuple[ExplorePoint, ...]
    audit: Tuple[ExplorePoint, ...]
    errors: ErrorStats
    audit_errors: ErrorStats
    recall: Optional[float]
    true_frontier_size: Optional[int]
    simulate_seconds: float
    result_hits: int
    manifest: Optional[RunManifest] = None

    @property
    def configs_per_second(self) -> float:
        if self.screen_seconds <= 0:
            return 0.0
        return self.total_candidates / self.screen_seconds

    @property
    def simulated_count(self) -> int:
        return len(self.frontier) + len(self.band) + len(self.audit)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready encoding (the CLI's ``--format json``)."""
        payload: Dict[str, Any] = {
            "space": self.space_spec,
            "sources": list(self.sources),
            "config": self.config,
            "model_version": MODEL_VERSION,
            "total_candidates": self.total_candidates,
            "screen": {
                "seconds": self.screen_seconds,
                "configs_per_second": self.configs_per_second,
                "cached": self.screen_cached,
            },
            "frontier": [point.to_payload() for point in self.frontier],
            "band": [point.to_payload() for point in self.band],
            "audit": [point.to_payload() for point in self.audit],
            "errors": self.errors.to_payload(),
            "audit_errors": self.audit_errors.to_payload(),
            "simulate": {
                "seconds": self.simulate_seconds,
                "cells": self.simulated_count * len(self.sources),
                "result_hits": self.result_hits,
            },
        }
        if self.recall is not None:
            payload["recall"] = self.recall
            payload["true_frontier_size"] = self.true_frontier_size
        if self.manifest is not None:
            payload["run_id"] = self.manifest.run_id
        return payload

    def render_report(self) -> str:
        """Human-readable report (the CLI's default output)."""
        lines = [
            f"design space: {self.space_spec}",
            f"  sources: {', '.join(self.sources)}  config: {self.config}",
            (
                f"  screened {self.total_candidates} candidates in "
                f"{self.screen_seconds:.3f}s "
                f"({self.configs_per_second:,.0f} configs/s"
                + (", cached)" if self.screen_cached else ")")
            ),
            (
                f"  simulated {self.simulated_count} of "
                f"{self.total_candidates} "
                f"({len(self.frontier)} frontier, {len(self.band)} band, "
                f"{len(self.audit)} audit) in {self.simulate_seconds:.2f}s"
            ),
            "",
            f"  {'cost':>6}  {'predicted':>9}  {'simulated':>9}  "
            f"{'err':>6}  spec",
        ]
        for point in self.frontier:
            lines.append(
                f"  {point.cost:>6}  {point.predicted:>9.3f}  "
                f"{point.simulated:>9.3f}  "
                f"{point.relative_error:>5.1%}  {point.spec}"
            )
        lines.append("")
        audit = (
            f"audit mean {self.audit_errors.mean_relative:.1%}"
            if self.audit_errors.count
            else "no audit sample"
        )
        lines.append(
            f"  model error: mean {self.errors.mean_relative:.1%} / "
            f"max {self.errors.max_relative:.1%} over {self.errors.count} "
            f"simulated; {audit}"
        )
        if self.recall is not None:
            lines.append(
                f"  frontier recall: {self.recall:.2f} "
                f"({self.true_frontier_size} true frontier points, "
                "exhaustive grid)"
            )
        return "\n".join(lines)


def _normalise_sources(sources: Sequence[str]) -> List[str]:
    from ..trace.sources import canonical_trace_spec

    return [canonical_trace_spec(source) for source in sources]


def _audit_sample(
    rng: random.Random, total: int, excluded: set, count: int
) -> List[int]:
    """A seeded sample of candidate indices outside *excluded*."""
    count = min(count, max(0, total - len(excluded)))
    chosen: List[int] = []
    seen = set(excluded)
    while len(chosen) < count:
        pick = rng.randrange(total)
        if pick in seen:
            continue
        seen.add(pick)
        chosen.append(pick)
    return sorted(chosen)


def explore(
    space: str,
    sources: Sequence[str],
    *,
    config: str = "M11BR5",
    budget: Optional[int] = None,
    audit: int = 16,
    seed: int = 0,
    slack: float = 0.15,
    band_per_segment: int = 4,
    workers: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    observe: bool = False,
    exhaustive: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> ExploreRun:
    """Run the full explorer pipeline over *space* and *sources*.

    Args:
        space: design-space spec (see :func:`parse_space`).
        sources: trace-source specs the candidates are evaluated on.
        config: machine-configuration name; a ``config=`` axis in the
            space spec wins over this default.
        budget: cap on candidates simulated exactly (frontier first,
            subsampled evenly by cost if it alone exceeds the budget,
            then band, then audit).
        audit: size of the seeded random audit sample drawn from the
            candidates the screen did *not* select.
        seed: audit-sample seed (the whole run is deterministic in it).
        slack: relative near-frontier slack for the verification band.
        band_per_segment: band size cap per frontier segment.
        workers: process fan-out for the exact stage.
        cache: DiskCache for traces, cell results, anchors and
            screened spaces.
        observe: write a run manifest (``explore`` table id).
        exhaustive: additionally simulate *every* candidate (grids up to
            5000 only) and report frontier recall against the true
            frontier.
        progress: per-simulated-cell progress callback.
    """
    run_started = time.monotonic()
    fastpath_before = fastpath.stats()
    parsed_space = parse_space(space, default_config=config)
    config = parsed_space.config
    normalised = _normalise_sources(sources)
    if not normalised:
        raise ValueError("explore needs at least one trace source")

    mark = time.monotonic()
    from ..core.config import config_by_name

    machine_config = config_by_name(config)
    anchors = [
        build_anchors(source, machine_config, cache=cache)
        for source in normalised
    ]
    anchors_ended = time.monotonic()

    result = screen_space(
        parsed_space, anchors,
        cache=cache, slack=slack, band_per_segment=band_per_segment,
    )
    screen_ended = time.monotonic()
    grid = result.grid

    frontier_idx = [int(i) for i in result.frontier]
    band_idx = [int(i) for i in result.band]
    audit_count = audit
    if budget is not None:
        budget = max(1, int(budget))
        if len(frontier_idx) > budget:
            positions = sorted(set(
                int(round(p))
                for p in np.linspace(0, len(frontier_idx) - 1, budget)
            ))
            frontier_idx = [frontier_idx[p] for p in positions]
            band_idx = []
        band_idx = band_idx[:max(0, budget - len(frontier_idx))]
        audit_count = max(
            0, min(audit, budget - len(frontier_idx) - len(band_idx))
        )
    selected = set(frontier_idx) | set(band_idx)
    rng = random.Random(seed)
    audit_idx = _audit_sample(rng, grid.n, selected, audit_count)

    if exhaustive:
        if grid.n > _MAX_EXHAUSTIVE:
            raise ValueError(
                f"exhaustive simulation is capped at {_MAX_EXHAUSTIVE} "
                f"candidates; the space has {grid.n}"
            )
        simulate_idx = list(range(grid.n))
    else:
        simulate_idx = sorted(selected | set(audit_idx))

    specs = {index: grid.machine_spec(index) for index in simulate_idx}
    simulated, sweep = simulate_specs(
        [specs[index] for index in simulate_idx], normalised,
        config=config, workers=workers, cache=cache, progress=progress,
    )
    simulate_ended = time.monotonic()

    if result.scored:
        predicted = {
            index: result.rate_of(index) for index in simulate_idx
        }
    else:
        # Cache-hit screen: stored records cover frontier+band; anything
        # else (audit, exhaustive) is re-estimated vectorised.
        predicted = {
            index: result.rate_of(index)
            for index in simulate_idx
            if index in selected
        }
        missing = [i for i in simulate_idx if i not in predicted]
        if missing:
            _, rates = estimate_grid(
                anchors, grid, np.array(missing, dtype=np.int64)
            )
            predicted.update(
                {index: float(rate) for index, rate in zip(missing, rates)}
            )

    costs_all = grid.costs()

    def points(indices: List[int]) -> Tuple[ExplorePoint, ...]:
        return tuple(
            ExplorePoint(
                index=index,
                spec=specs[index],
                cost=int(costs_all[index]),
                predicted=predicted[index],
                simulated=simulated[specs[index]],
            )
            for index in indices
        )

    frontier_points = points(frontier_idx)
    band_points = points(band_idx)
    audit_points = points(audit_idx)
    reported = frontier_points + band_points + audit_points
    errors = ErrorStats.from_pairs(
        [p.predicted for p in reported], [p.simulated for p in reported]
    )
    audit_errors = ErrorStats.from_pairs(
        [p.predicted for p in audit_points],
        [p.simulated for p in audit_points],
    )

    recall: Optional[float] = None
    true_frontier_size: Optional[int] = None
    if exhaustive:
        recall, true_frontier = frontier_recall(
            {i: int(costs_all[i]) for i in simulate_idx},
            {i: simulated[specs[i]] for i in simulate_idx},
            sorted(selected),
        )
        true_frontier_size = len(true_frontier)

    manifest: Optional[RunManifest] = None
    if observe:
        manifest = _explore_manifest(
            parsed_space, result, sweep, errors, audit_errors, recall,
            fastpath_before, run_started, anchors_ended, screen_ended,
            simulate_ended, len(simulate_idx), cache,
        )

    return ExploreRun(
        space_spec=space,
        space=parsed_space,
        sources=tuple(normalised),
        config=config,
        total_candidates=result.total,
        screen_seconds=result.seconds,
        screen_cached=result.cached,
        frontier=frontier_points,
        band=band_points,
        audit=audit_points,
        errors=errors,
        audit_errors=audit_errors,
        recall=recall,
        true_frontier_size=true_frontier_size,
        simulate_seconds=sweep.stats.wall_seconds,
        result_hits=sweep.stats.result_hits,
        manifest=manifest,
    )


def _explore_manifest(
    space: DesignSpace,
    result: ScreenResult,
    sweep: PlanRun,
    errors: ErrorStats,
    audit_errors: ErrorStats,
    recall: Optional[float],
    fastpath_before: Dict[str, int],
    run_started: float,
    anchors_ended: float,
    screen_ended: float,
    simulate_ended: float,
    simulated: int,
    cache: Optional[DiskCache],
) -> RunManifest:
    """Record the explore run: spans per stage, screen + error metrics."""
    registry = MetricsRegistry()
    registry.set_gauge("explore.candidates", result.total)
    registry.set_gauge("explore.screen_seconds", result.seconds)
    registry.set_gauge(
        "explore.configs_per_second", result.configs_per_second
    )
    registry.set_gauge("explore.frontier_size", len(result.frontier))
    registry.set_gauge("explore.band_size", len(result.band))
    registry.set_gauge("explore.simulated", simulated)
    registry.set_gauge("explore.error.mean_relative", errors.mean_relative)
    registry.set_gauge("explore.error.max_relative", errors.max_relative)
    registry.set_gauge(
        "explore.audit.mean_relative", audit_errors.mean_relative
    )
    if recall is not None:
        registry.set_gauge("explore.recall", recall)
    for name, value in _fastpath_deltas(
        fastpath_before, fastpath.stats()
    ).items():
        registry.inc(name, value)

    tracer = Tracer()
    root = tracer.adopt(
        "explore", run_started, simulate_ended,
        pid=os.getpid(), candidates=result.total,
    )
    tracer.adopt(
        "anchors", run_started, anchors_ended,
        parent_id=root.span_id, pid=os.getpid(),
    )
    tracer.adopt(
        "screen", anchors_ended, screen_ended,
        parent_id=root.span_id, pid=os.getpid(), cached=result.cached,
    )
    tracer.adopt(
        "simulate", screen_ended, simulate_ended,
        parent_id=root.span_id, pid=os.getpid(), cells=simulated,
    )
    manifest = RunManifest(
        run_id=new_run_id("explore"),
        table_id="explore",
        created=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
        git_sha=current_git_sha(),
        config={
            "space": space.to_key(),
            "model_version": MODEL_VERSION,
            "model": model_fingerprint(),
            "workers": sweep.stats.workers,
            "cache_enabled": cache is not None,
        },
        timings={
            "wall_seconds": simulate_ended - run_started,
            "screen_seconds": result.seconds,
            "simulate_seconds": sweep.stats.wall_seconds,
        },
        metrics=registry.snapshot(),
        spans=tracer.to_payload(),
    )
    root_dir = cache.root if cache is not None else default_cache_dir()
    write_manifest(manifest, root_dir)
    return manifest
