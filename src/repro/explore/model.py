"""The analytic issue-rate estimator behind the design-space screen.

For one trace the simulators' sustained issue rate is bracketed by two
quantities the limit study already computes exactly: the **serial
limit** (WAW-in-order critical path, capped by the resource bound) from
below and the **pseudo-dataflow limit** from above.  The estimator
predicts where inside that bracket a machine configuration lands using
only per-trace compiled-IR statistics (:class:`repro.trace.stats.IRStats`)
and a handful of closed-form queuing terms:

``width term``
    ``1 + eff * (width - 1)`` -- the decode/issue bandwidth an issue
    discipline converts into sustained issue.  ``eff`` is 1 for the RUU
    (full register renaming; the window term below is its real
    limiter) and a dependence-derived fraction for in-order and
    restricted out-of-order issue, computed from the trace's nearest-
    producer RAW distances and its mean service latency.

``resource term``
    ``n / max_u(ceil(occupancy_u / fu) - 1 + latency_u)`` -- the
    fully-pipelined busy-span bound of :mod:`repro.limits.resource`,
    generalised to ``fu`` duplicated copies of every unit.  At
    ``fu=1`` this equals :func:`repro.limits.resource.resource_limit`
    exactly (the anchor tests pin this).

``window term``
    ``window / mean_service_latency`` (RUU only) -- Little's law: a
    window of R in-flight instructions with mean residency λ̄ cycles
    sustains at most R/λ̄ issues per cycle.  λ̄ weighs every unit's
    latency by its occupancy, so the branch/memory mix enters here.

``bus term``
    ``1 / bus_fraction`` under a single result bus (one register write
    per cycle); unconstrained for n-bus and crossbar structures.

The terms compose **harmonically** -- ``1/score`` is the sum of the
inverse terms (including the inverse dataflow limit), the standard
serial-bottleneck composition -- so the raw *score* approaches but
never reaches the dataflow limit and is *strictly* increasing in issue
width, window size and FU copies.  That strictness is what the screen's
Pareto ranking needs: a hard minimum saturates (every candidate past
the binding bottleneck ties), and on branch- or chain-dominated traces
whose [serial, dataflow] bracket is nearly a point, saturation would
collapse the predicted frontier to its single cheapest member.

The reported **estimate** is the score clamped into
``[serial, dataflow]``.  The estimate is provably inside the bracket
and monotone nondecreasing in every knob (clamping preserves
monotonicity); the property tests assert both invariants on random
traces and knob settings.  The screen ranks by the unclamped score and
reports the clamped estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from ..core.config import MachineConfig, config_by_name
from ..isa import FunctionalUnit
from ..limits import compute_limits
from ..trace import DiskCache, Trace
from ..trace.diskcache import model_fingerprint
from ..trace.stats import ir_statistics
from .space import BUSES, FAMILIES, CandidateGrid

__all__ = [
    "MODEL_VERSION",
    "TraceAnchors",
    "build_anchors",
    "estimate_one",
    "estimate_rates",
]

#: Bump to invalidate cached anchors and screened spaces after a change
#: to the estimator's terms or the anchor payload.  Their keys also fold
#: in the model fingerprint, so an edit to this module, the screen or
#: any timing model invalidates them even without a bump.
MODEL_VERSION = 1

_RUU = FAMILIES.index("ruu")
_INORDER = FAMILIES.index("inorder")
_OOO = FAMILIES.index("ooo")
_ONE_BUS = BUSES.index("1bus")


@dataclass(frozen=True)
class TraceAnchors:
    """Everything the estimator needs about one (trace, config) pair.

    Attributes:
        source: normalised trace-source spec.
        name: trace name.
        instructions: dynamic instruction count.
        config: machine-configuration name.
        serial_rate: the serial actual limit (WAW-in-order dataflow
            capped by the resource bound) -- the estimate's floor.
        dataflow_rate: the pure pseudo-dataflow limit -- the ceiling.
        unit_occupancy: unit name -> busy-cycle demand (resource-limit
            counting: vector ops occupy their unit once per element).
        unit_latency: unit name -> latency under this config.
        mean_service_latency: occupancy-weighted mean unit latency per
            instruction (λ̄ in the window term).
        bus_fraction: fraction of instructions writing a result bus.
        mean_dependence_distance: mean nearest-producer RAW distance.
        p90_dependence_distance: 90th-percentile RAW distance.
        dependent_fraction: fraction of instructions with an in-trace
            producer.
    """

    source: str
    name: str
    instructions: int
    config: str
    serial_rate: float
    dataflow_rate: float
    unit_occupancy: Mapping[str, int]
    unit_latency: Mapping[str, int]
    mean_service_latency: float
    bus_fraction: float
    mean_dependence_distance: float
    p90_dependence_distance: float
    dependent_fraction: float

    @property
    def inorder_efficiency(self) -> float:
        """Per-slot issue efficiency of in-order multi-issue.

        In-order issue stops at the first not-ready instruction, so the
        usable fraction of extra slots grows with how far results are
        from their consumers relative to how long they take: tight
        chains (distance ≈ λ̄ or less) leave later slots idle.
        """
        slack = self.mean_dependence_distance / max(
            self.mean_dependence_distance + self.mean_service_latency, 1e-9
        )
        return min(0.9, max(0.2, slack))

    @property
    def ooo_efficiency(self) -> float:
        """Per-slot issue efficiency of restricted out-of-order issue.

        Out-of-order lookahead hides most stalls but still loses slots
        to dense dependence clusters; the p90 distance measures how
        often far-apart independent work is available.
        """
        spread = self.p90_dependence_distance / (
            self.p90_dependence_distance + 1.0
        )
        return min(0.95, max(0.5, 0.5 + spread / 2.0))

    def to_payload(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "name": self.name,
            "instructions": self.instructions,
            "config": self.config,
            "serial_rate": self.serial_rate,
            "dataflow_rate": self.dataflow_rate,
            "unit_occupancy": dict(self.unit_occupancy),
            "unit_latency": dict(self.unit_latency),
            "mean_service_latency": self.mean_service_latency,
            "bus_fraction": self.bus_fraction,
            "mean_dependence_distance": self.mean_dependence_distance,
            "p90_dependence_distance": self.p90_dependence_distance,
            "dependent_fraction": self.dependent_fraction,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TraceAnchors":
        return cls(
            source=str(payload["source"]),
            name=str(payload["name"]),
            instructions=int(payload["instructions"]),
            config=str(payload["config"]),
            serial_rate=float(payload["serial_rate"]),
            dataflow_rate=float(payload["dataflow_rate"]),
            unit_occupancy={
                str(k): int(v)
                for k, v in payload["unit_occupancy"].items()
            },
            unit_latency={
                str(k): int(v) for k, v in payload["unit_latency"].items()
            },
            mean_service_latency=float(payload["mean_service_latency"]),
            bus_fraction=float(payload["bus_fraction"]),
            mean_dependence_distance=float(
                payload["mean_dependence_distance"]
            ),
            p90_dependence_distance=float(payload["p90_dependence_distance"]),
            dependent_fraction=float(payload["dependent_fraction"]),
        )


def _anchors_key(source: str, config: str) -> Dict[str, Any]:
    return {
        "kind": "explore-anchors",
        "source": source,
        "config": config,
        "version": MODEL_VERSION,
        "model": model_fingerprint(),
    }


def build_anchors(
    source: str,
    config: Optional[MachineConfig] = None,
    *,
    cache: Optional[DiskCache] = None,
    trace: Optional[Trace] = None,
) -> TraceAnchors:
    """Compute (or load) the estimator anchors for one trace source.

    With a :class:`~repro.trace.DiskCache`, anchors are content-addressed
    on (source, config, model version, model fingerprint); a warm hit skips trace
    generation, compilation and both limit computations entirely.
    ``file:`` sources are never cached.  The trace resolves through the
    engine (:func:`repro.harness.engine.resolve_trace`), so the exact
    stage that follows replays the very trace object -- and its
    compiled IR -- the anchors were computed from.
    """
    from ..harness.engine import resolve_trace
    from ..trace.sources import format_trace_spec, parse_trace_spec

    if config is None:
        config = config_by_name("M11BR5")
    parsed = parse_trace_spec(source)
    normalised = format_trace_spec(parsed)
    cacheable = cache is not None and parsed.head != "file"
    if cacheable:
        record = cache.load_result(_anchors_key(normalised, config.name))
        if record is not None:
            try:
                return TraceAnchors.from_payload(record)
            except (KeyError, TypeError, ValueError):
                pass  # corrupt payload: recompute and overwrite

    if trace is None:
        trace, _ = resolve_trace(normalised, cache)
    ir = ir_statistics(trace)
    pure = compute_limits(trace, config)
    serial = compute_limits(trace, config, serial=True)
    latencies = config.latencies
    unit_latency = {
        unit: latencies.latency(FunctionalUnit(unit))
        for unit in ir.unit_occupancy
    }
    service = sum(
        occupancy * unit_latency[unit]
        for unit, occupancy in ir.unit_occupancy.items()
    ) / ir.length
    anchors = TraceAnchors(
        source=normalised,
        name=ir.name,
        instructions=ir.length,
        config=config.name,
        serial_rate=serial.actual_rate,
        dataflow_rate=pure.pseudo_dataflow_rate,
        unit_occupancy=ir.unit_occupancy,
        unit_latency=unit_latency,
        mean_service_latency=service,
        bus_fraction=ir.bus_fraction,
        mean_dependence_distance=ir.mean_dependence_distance,
        p90_dependence_distance=ir.p90_dependence_distance,
        dependent_fraction=ir.dependent_fraction,
    )
    if cacheable:
        cache.store_result(
            _anchors_key(normalised, config.name), anchors.to_payload()
        )
    return anchors


def _resource_rate(anchors: TraceAnchors, fu: int) -> float:
    """The resource bound with *fu* duplicated copies of every unit.

    At ``fu=1`` this is exactly
    :func:`repro.limits.resource.resource_limit`'s issue-rate limit.
    """
    span = max(
        -(-occupancy // fu) - 1 + anchors.unit_latency[unit]
        for unit, occupancy in anchors.unit_occupancy.items()
    )
    return anchors.instructions / max(span, 1)


def _scores_for_anchors(
    anchors: TraceAnchors,
    family: np.ndarray,
    width: np.ndarray,
    window: np.ndarray,
    bus: np.ndarray,
    fu: np.ndarray,
) -> np.ndarray:
    """Raw (unclamped) per-trace score of every candidate (vectorised).

    Harmonic composition of the width, resource, window, bus and
    dataflow terms: ``1/score = sum(1/term)``.  Strictly increasing in
    width, window and fu; strictly below the dataflow limit.
    """
    eff = np.array([
        anchors.inorder_efficiency,  # _INORDER
        anchors.ooo_efficiency,      # _OOO
        1.0,                         # _RUU
    ])[family]
    width_term = 1.0 + eff * (width.astype(np.float64) - 1.0)
    inverse = 1.0 / width_term

    resource = np.empty(len(family), dtype=np.float64)
    for copies in np.unique(fu):
        resource[fu == copies] = _resource_rate(anchors, int(copies))
    inverse += 1.0 / resource

    is_ruu = family == _RUU
    if is_ruu.any():
        window_term = window[is_ruu].astype(np.float64) / max(
            anchors.mean_service_latency, 1e-9
        )
        inverse[is_ruu] += 1.0 / window_term

    # The single result bus admits one register write per cycle, so its
    # inverse term is simply the per-instruction bus demand.
    inverse[bus == _ONE_BUS] += anchors.bus_fraction

    inverse += 1.0 / anchors.dataflow_rate
    return 1.0 / inverse


def estimate_rates(
    anchors_list: Sequence[TraceAnchors],
    family: np.ndarray,
    width: np.ndarray,
    window: np.ndarray,
    bus: np.ndarray,
    fu: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """``(scores, estimates)`` of every candidate over a trace set.

    Per-trace values fold with the harmonic mean, matching how the
    exact verification stage aggregates simulated rates.  *scores* are
    the unclamped ranking keys; *estimates* clamp each per-trace score
    into its trace's [serial, dataflow] bracket before folding, so the
    aggregate estimate stays inside the harmonic-mean bracket of the
    per-trace limits.
    """
    score_inverse = np.zeros(len(family), dtype=np.float64)
    estimate_inverse = np.zeros(len(family), dtype=np.float64)
    for anchors in anchors_list:
        scores = _scores_for_anchors(
            anchors, family, width, window, bus, fu
        )
        score_inverse += 1.0 / scores
        estimate_inverse += 1.0 / np.clip(
            scores, anchors.serial_rate, anchors.dataflow_rate
        )
    count = len(anchors_list)
    return count / score_inverse, count / estimate_inverse


def estimate_grid(
    anchors_list: Sequence[TraceAnchors],
    grid: CandidateGrid,
    indices: Optional[np.ndarray] = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """:func:`estimate_rates` over a :class:`CandidateGrid` (or a subset)."""
    if indices is None:
        return estimate_rates(
            anchors_list, grid.family, grid.width, grid.window,
            grid.bus, grid.fu,
        )
    return estimate_rates(
        anchors_list,
        grid.family[indices], grid.width[indices], grid.window[indices],
        grid.bus[indices], grid.fu[indices],
    )


def estimate_one(
    anchors_list: Sequence[TraceAnchors],
    *,
    family: str,
    width: int,
    window: int = 0,
    bus: str = "nbus",
    fu: int = 1,
) -> float:
    """Scalar clamped estimate for one candidate (the property tests)."""
    return float(estimate_rates(
        anchors_list,
        np.array([FAMILIES.index(family)], dtype=np.int8),
        np.array([width], dtype=np.int32),
        np.array([window], dtype=np.int32),
        np.array([BUSES.index(bus)], dtype=np.int8),
        np.array([fu], dtype=np.int32),
    )[1][0])
