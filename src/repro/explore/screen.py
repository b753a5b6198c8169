"""Vectorised screening: score every candidate, keep the frontier.

The screen evaluates the closed-form estimator
(:mod:`repro.explore.model`) over the whole candidate grid at NumPy
speed, then extracts in one pass:

* the **Pareto frontier** of (cost, predicted rate) -- for every cost
  the best predicted rate, kept only where it strictly improves on all
  cheaper candidates;
* a bounded **verification band** -- per frontier segment, the few
  cheapest near-misses within a relative slack of the frontier rate.
  The band exists because the screen is approximate: a config the model
  under-rates by a hair may be on the *true* frontier, so the exact
  stage simulates the band too and frontier recall is measured against
  it.  Binding the band per segment (rather than taking every config
  within the slack) keeps the simulated set O(frontier size), not
  O(grid size).

Screened spaces are content-addressed in the DiskCache on (space,
sources, config, model version), so repeating an explore run skips the
scoring pass entirely and re-estimates only the audit sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..trace import DiskCache
from ..trace.diskcache import model_fingerprint
from .model import MODEL_VERSION, TraceAnchors, estimate_grid
from .space import CandidateGrid, DesignSpace, expand_space

__all__ = [
    "ScreenResult",
    "pareto_frontier",
    "screen_space",
    "verification_band",
]

#: Stored-record schema; bump with the payload shape.
_SCREEN_SCHEMA = 1

#: Hard cap on stored band entries (a pathological slack setting cannot
#: bloat the cache or the simulation set).
_MAX_BAND = 4096


def pareto_frontier(costs: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Indices of the (cost, rate) Pareto frontier, ascending cost.

    One ``lexsort`` plus a running maximum: a candidate is on the
    frontier iff it has the best rate at its cost and that rate strictly
    beats every cheaper candidate.  Ties on rate keep the cheapest cost
    only (a same-rate, higher-cost point is dominated).
    """
    order = np.lexsort((-rates, costs))
    cost_sorted = costs[order]
    rate_sorted = rates[order]
    new_cost = np.empty(len(order), dtype=bool)
    new_cost[0] = True
    new_cost[1:] = cost_sorted[1:] > cost_sorted[:-1]
    representatives = np.flatnonzero(new_cost)
    best = rate_sorted[representatives]
    previous_best = np.concatenate(
        ([-np.inf], np.maximum.accumulate(best)[:-1])
    )
    return order[representatives[best > previous_best]]


def verification_band(
    costs: np.ndarray,
    rates: np.ndarray,
    frontier: np.ndarray,
    *,
    slack: float = 0.15,
    per_segment: int = 4,
) -> np.ndarray:
    """Near-frontier candidates worth exact simulation, bounded.

    For every candidate the binding frontier point is the most expensive
    frontier point at cost <= its own (``searchsorted`` on the
    frontier's ascending costs).  Candidates within ``slack`` relative
    rate of that point are eligible; the ``per_segment`` cheapest per
    frontier segment are kept, so the band is at most
    ``per_segment * len(frontier)`` indices (and never more than
    ``_MAX_BAND``).
    """
    if len(frontier) == 0 or per_segment <= 0:
        return np.empty(0, dtype=np.int64)
    frontier_costs = costs[frontier]
    frontier_rates = rates[frontier]
    segment = np.searchsorted(frontier_costs, costs, side="right") - 1
    on_frontier = np.zeros(len(costs), dtype=bool)
    on_frontier[frontier] = True
    eligible = (
        (segment >= 0)
        & ~on_frontier
        & (rates >= (1.0 - slack) * frontier_rates[np.maximum(segment, 0)])
    )
    candidates = np.flatnonzero(eligible)
    if len(candidates) == 0:
        return candidates
    # Cheapest-first within each segment, then cap per segment.
    order = np.lexsort((costs[candidates], segment[candidates]))
    candidates = candidates[order]
    segments = segment[candidates]
    new_segment = np.empty(len(candidates), dtype=bool)
    new_segment[0] = True
    new_segment[1:] = segments[1:] != segments[:-1]
    # Rank within segment: position since the segment started.
    starts = np.maximum.accumulate(
        np.where(new_segment, np.arange(len(candidates)), 0)
    )
    rank = np.arange(len(candidates)) - starts
    kept = candidates[rank < per_segment]
    return np.sort(kept)[:_MAX_BAND]


@dataclass(frozen=True)
class ScreenResult:
    """Outcome of screening one space over one trace set.

    ``rates`` and ``costs`` cover the whole grid on a live screen and
    only the frontier/band indices after a cache hit (``scored`` tells
    which; ``rate_of``/``cost_of`` work either way).
    """

    space: DesignSpace
    grid: CandidateGrid
    total: int
    seconds: float
    frontier: np.ndarray
    band: np.ndarray
    cached: bool
    scored: bool
    rates: Optional[np.ndarray]
    costs: Optional[np.ndarray]
    _lookup: Dict[int, int]

    @property
    def configs_per_second(self) -> float:
        return self.total / self.seconds if self.seconds > 0 else 0.0

    def rate_of(self, index: int) -> float:
        """Predicted rate of candidate *index* (frontier/band on a hit)."""
        if self.scored:
            return float(self.rates[index])
        return float(self.rates[self._lookup[int(index)]])

    def cost_of(self, index: int) -> int:
        if self.scored:
            return int(self.costs[index])
        return int(self.costs[self._lookup[int(index)]])


def _screen_key(
    space: DesignSpace, sources: Sequence[str]
) -> Dict[str, Any]:
    return {
        "kind": "explore-screen",
        "space": space.to_key(),
        "sources": list(sources),
        "model_version": MODEL_VERSION,
        "schema": _SCREEN_SCHEMA,
        "model": model_fingerprint(),
    }


def _from_record(
    space: DesignSpace, grid: CandidateGrid, record: Dict[str, Any]
) -> ScreenResult:
    frontier = np.array(
        [int(entry[0]) for entry in record["frontier"]], dtype=np.int64
    )
    band = np.array(
        [int(entry[0]) for entry in record["band"]], dtype=np.int64
    )
    indices = np.concatenate([frontier, band])
    costs = np.array(
        [int(entry[1]) for entry in record["frontier"] + record["band"]],
        dtype=np.int64,
    )
    rates = np.array(
        [float(entry[2]) for entry in record["frontier"] + record["band"]],
        dtype=np.float64,
    )
    if int(record["total"]) != grid.n:
        raise ValueError("stale screen record")
    return ScreenResult(
        space=space,
        grid=grid,
        total=int(record["total"]),
        seconds=float(record["seconds"]),
        frontier=frontier,
        band=band,
        cached=True,
        scored=False,
        rates=rates,
        costs=costs,
        _lookup={int(idx): pos for pos, idx in enumerate(indices)},
    )


def screen_space(
    space: DesignSpace,
    anchors: Sequence[TraceAnchors],
    *,
    cache: Optional[DiskCache] = None,
    slack: float = 0.15,
    band_per_segment: int = 4,
) -> ScreenResult:
    """Score *space* against *anchors*; frontier + band in one pass.

    With a cache, a previously screened (space, sources, model version)
    triple loads its frontier and band without touching the grid's
    scores (the stored records carry the predicted rates and costs of
    exactly the candidates the exact stage needs).
    """
    grid = expand_space(space)
    sources = [a.source for a in anchors]
    if cache is not None:
        record = cache.load_result(_screen_key(space, sources))
        if record is not None:
            try:
                return _from_record(space, grid, record)
            except (KeyError, IndexError, TypeError, ValueError):
                pass  # corrupt/stale record: re-screen and overwrite

    start = time.perf_counter()
    scores, rates = estimate_grid(anchors, grid)
    costs = grid.costs()
    frontier = pareto_frontier(costs, scores)
    band = verification_band(
        costs, scores, frontier, slack=slack, per_segment=band_per_segment
    )
    seconds = time.perf_counter() - start

    if cache is not None:
        cache.store_result(_screen_key(space, sources), {
            "total": grid.n,
            "seconds": seconds,
            "frontier": [
                [int(i), int(costs[i]), float(rates[i])] for i in frontier
            ],
            "band": [
                [int(i), int(costs[i]), float(rates[i])] for i in band
            ],
        })
    return ScreenResult(
        space=space,
        grid=grid,
        total=grid.n,
        seconds=seconds,
        frontier=frontier,
        band=band,
        cached=False,
        scored=True,
        rates=rates,
        costs=costs,
        _lookup={},
    )
