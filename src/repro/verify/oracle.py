"""Cross-machine differential oracle.

Replays one trace through a set of registered machines plus the Section 4
limit calculators and asserts the paper's ordering claims on the *cycle
counts* (every machine runs the same trace, so comparing integer cycles
is exact -- no floating-point tolerance needed):

* **limit bounds** -- no machine finishes before the pseudo-dataflow
  critical path or before the resource (fully-pipelined base machine)
  bound; the serial-WAW dataflow variant is never faster than the pure
  one;
* **partial order** -- relaxing a constraint never loses performance:
  pipelining the units, interleaving the memory, letting RAW hazards
  wait at the units, adding in-order issue units and growing the RUU are
  each monotone improvements (the paper's Tables 1-8 ordering);
* **exact duals** -- the CRAY-like scoreboard and the multi-issue
  machines at one issue station are numerically identical (they model
  the same hardware), as are in-order and out-of-order issue at a
  buffer of one;
* **fastpath duals** -- every machine whose default :meth:`simulate`
  dispatches to the compiled fast path in :mod:`repro.core.fastpath`
  (the scoreboard family, the in-order and out-of-order multi-issue
  machines, the RUU, Tomasulo, CDC6600 and speculative models) must
  match one observed replay of its event-emitting reference loop: the
  same cycle count, and the same per-instruction ``(issue,
  resolution)`` schedule -- the fast path's recorded schedule against
  the one :func:`repro.obs.events.schedule_from_events` rebuilds from
  the replay's events.  The verify runner makes that replay once per
  (seed, machine) and shares it with the invariant checks; the nightly
  fuzz shards replay this check over thousands of seeds.

The edge list was calibrated empirically over ~12,000 fuzzed traces
(all four memory/branch variants, trace shapes from length-1 to
all-branch to dependency-free) before being pinned here; every pinned
edge held on every trace.  Many *plausible* edges are deliberately
absent because greedy cycle-level schedulers admit classic scheduling
anomalies -- extra freedom occasionally loses a cycle or two on an
adversarial trace even though it wins on real workloads:

* out-of-order issue vs in-order at the same width (``ooo:N`` can lose
  a cycle to ``inorder:N`` when an eagerly issued young instruction
  steals a unit/bus slot from a critical older one);
* Tomasulo vs the scoreboard (the reservation-station dispatch stage
  costs one cycle on short serial chains);
* pipelined vs unsegmented units, interleaved vs serial memory, RUU
  size and issue width beyond two units, and result-bus width: each
  fails on roughly one fuzzed trace in a few thousand (shifting one
  early completion can re-order a later greedy tie-break against the
  critical path).

Those relations remain true *for the paper's harmonic means*; the
golden-table regression tests pin them at that level instead.  What
survives per-trace -- and is pinned below -- is the serial-execution
edges at the bottom of the hierarchy, the two exact hardware duals,
and the first widening step (one issue slot admits no reordering
choices, so a second slot can only help).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import fastpath
from ..core.base import Simulator
from ..core.config import MachineConfig
from ..core.fastpath.ir import Schedule
from ..core.result import SimulationResult
from ..limits import pseudo_dataflow_schedule, resource_limit
from ..obs.events import EventCollector
from ..obs.telemetry import SimTelemetry, telemetry_from_events
from ..trace import Trace
from .invariants import ObservedReplay, observe

#: The machine set `repro verify` replays by default: every fixed
#: registry spec plus representative points of each parameter sweep.
DEFAULT_ORACLE_MACHINES: Tuple[str, ...] = (
    "simple",
    "serialmemory",
    "nonsegmented",
    "cray",
    "cdc6600",
    "tomasulo",
    "inorder:1",
    "inorder:2",
    "inorder:4",
    "ooo:1",
    "ooo:2",
    "ooo:4",
    "ooo:4:1bus",
    "ruu:1:1",
    "ruu:2:10",
    "ruu:2:50",
    "ruu:4:50",
    "ruu:4:50:1bus",
    "spec:50:none",
    "spec:50:btfn",
    "spec:50:2bit",
    "spec:50:perfect",
    "spec:50:wrong",
)

#: Memory-system wrapper specs use their own access latencies (cache hits
#: can beat the config's memory latency), so the config-derived limit
#: bounds do not apply to them.  The speculative family is exempt too:
#: it is contention-free past the issue stage (it can beat the per-unit
#: resource throughput bound) and speculates past branches (the
#: pseudo-dataflow bound serialises every branch at full latency).
_BOUND_EXEMPT_HEADS = frozenset({"cache", "banked", "spec"})


@dataclass(frozen=True)
class OrderingEdge:
    """One claim ``cycles(fast) <= cycles(slow)`` (``==`` when exact).

    ``fast`` names the machine with the relaxed constraint -- the one the
    paper argues is at least as good.
    """

    fast: str
    slow: str
    exact: bool = False
    claim: str = ""


#: The paper's partial order, as calibrated edges (see module docstring).
DEFAULT_EDGES: Tuple[OrderingEdge, ...] = (
    OrderingEdge("serialmemory", "simple", claim="overlap beats serial execution"),
    OrderingEdge("cdc6600", "nonsegmented", claim="RAW waits at the units"),
    OrderingEdge("inorder:1", "cray", exact=True, claim="same hardware, two models"),
    OrderingEdge("ooo:1", "inorder:1", exact=True, claim="one slot leaves no reordering"),
    OrderingEdge("inorder:2", "inorder:1", claim="a second issue unit"),
    OrderingEdge("ruu:2:10", "ruu:1:1", claim="wider issue and a larger RUU"),
    # The speculative family's prediction-quality chain.  Unlike the
    # contended machines above, these hold per seed BY CONSTRUCTION:
    # the spec machine is contention-free past the issue stage, so every
    # timing recurrence is isotone (max/+ over earlier issue,
    # availability and commit times) and relaxing any branch's
    # issue-resume window can only help -- perfect relaxes every
    # conditional branch a real predictor gets right, a real predictor
    # relaxes every branch always-wrong stalls on, and always-wrong (at
    # the default zero recovery penalty) still redirects unconditional
    # branches in one cycle where the no-speculation baseline pays the
    # full branch latency (see docs/speculation.md for the argument).
    OrderingEdge(
        "spec:50:perfect", "spec:50:2bit",
        claim="perfect prediction bounds any real predictor",
    ),
    OrderingEdge(
        "spec:50:perfect", "spec:50:btfn",
        claim="perfect prediction bounds any real predictor",
    ),
    OrderingEdge(
        "spec:50:2bit", "spec:50:wrong",
        claim="a real predictor never loses to always-wrong",
    ),
    OrderingEdge(
        "spec:50:btfn", "spec:50:wrong",
        claim="a real predictor never loses to always-wrong",
    ),
    OrderingEdge(
        "spec:50:wrong", "spec:50:none",
        claim="speculation with bounded recovery never loses to "
        "no speculation",
    ),
    OrderingEdge(
        "spec:50:none", "ruu:4:50",
        claim="the contention-free limit machine never loses to the "
        "contended RUU at the same width and window",
    ),
)


#: Every check id :func:`run_oracle` reports.  The verify shrinker routes
#: a failure back to the oracle by this set; any other id is an
#: invariant check (:mod:`repro.verify.invariants`).
ORACLE_CHECKS = frozenset({
    "serial-dataflow-bound",
    "dataflow-bound",
    "resource-bound",
    "fastpath-dual",
    "telemetry",
    "exact-equality",
    "partial-order",
})


@dataclass(frozen=True)
class OracleViolation:
    """One broken ordering or bound on one (trace, config) replay."""

    check: str
    machine: str
    config: str
    trace_name: str
    message: str
    other: str = ""

    def __str__(self) -> str:
        return (
            f"[{self.check}] {self.machine} on {self.trace_name} "
            f"({self.config}): {self.message}"
        )


@dataclass
class OracleReport:
    """Everything the oracle measured for one trace under one config."""

    trace_name: str
    config: str
    cycles: Dict[str, int] = field(default_factory=dict)
    dataflow_makespan: int = 0
    serial_dataflow_makespan: int = 0
    resource_makespan: int = 0
    violations: List[OracleViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_oracle(
    trace: Trace,
    config: MachineConfig,
    machines: Sequence[str] = DEFAULT_ORACLE_MACHINES,
    edges: Sequence[OrderingEdge] = DEFAULT_EDGES,
    *,
    simulators: Optional[Mapping[str, Simulator]] = None,
    check_telemetry: bool = False,
    observed: Optional[Mapping[str, ObservedReplay]] = None,
) -> OracleReport:
    """Replay *trace* through *machines* and check bounds and orderings.

    Edges whose endpoints are not both in *machines* are skipped, so a
    caller can verify any subset.  *simulators* substitutes specific
    instances by spec (the test suite injects deliberately broken
    machines this way); an injected machine is replayed through its own
    ``simulate`` and, for the dual, its own ``reference_simulate``.

    Every other spec is served by one observed replay
    (:class:`~repro.verify.invariants.ObservedReplay`): the entry in
    *observed* when the caller already made it (the verify runner
    passes the replays its invariant checks used), otherwise one made
    here.  That replay is the machine's result when it has no compiled
    fast path; for the rest it is the reference side of the
    ``fastpath-dual`` check, which compares the fast path's cycles and
    its recorded per-instruction ``(issue, resolution)`` schedule with
    the replay's result and the schedule its events give.  With
    *check_telemetry* the replay's events (which the replay must then
    still hold) are also folded into a
    :class:`~repro.obs.telemetry.SimTelemetry` record and compared field
    by field with the fast path's -- the nightly telemetry-equality
    oracle.

    The limit calculators and every fast-path machine share one
    :func:`repro.core.fastpath.compile_trace` result: the compile cache
    holds it for as long as the trace lives.
    """
    report = OracleReport(trace_name=trace.name, config=config.name)

    dataflow = pseudo_dataflow_schedule(trace, config)
    serial = pseudo_dataflow_schedule(trace, config, serial_waw=True)
    resource = resource_limit(trace, config)
    report.dataflow_makespan = dataflow.makespan
    report.serial_dataflow_makespan = serial.makespan
    report.resource_makespan = resource.makespan

    def violation(
        check: str, machine: str, message: str, other: str = ""
    ) -> None:
        report.violations.append(
            OracleViolation(
                check=check,
                machine=machine,
                config=config.name,
                trace_name=trace.name,
                message=message,
                other=other,
            )
        )

    if serial.makespan < dataflow.makespan:
        violation(
            "serial-dataflow-bound",
            "limits",
            f"serial-WAW dataflow makespan {serial.makespan} beats "
            f"the unconstrained makespan {dataflow.makespan}",
        )

    # Fast-eligible specs replay as one sweep, each member recording its
    # schedule for the dual; the rest reuse their observed replay.
    # Injected simulator overrides bypass both on purpose -- the test
    # suite plants broken machines there and expects their own
    # ``simulate`` to be what the oracle observes.
    sims: Dict[str, Simulator] = {}
    results: Dict[str, SimulationResult] = {}
    references: Dict[str, ObservedReplay] = {}
    records: Dict[str, Schedule] = {}
    for spec in machines:
        if simulators is not None and spec in simulators:
            sim = simulators[spec]
            results[spec] = sim.simulate(trace, config)
            if hasattr(sim, "reference_simulate"):
                references[spec] = _injected_reference(
                    sim, trace, config, check_telemetry
                )
        else:
            replay = observed.get(spec) if observed is not None else None
            if replay is None:
                replay = observe(trace, spec, config)
            sim = replay.simulator
            if fastpath.fast_eligible(sim):
                references[spec] = replay
                records[spec] = []
            else:
                results[spec] = replay.result
        sims[spec] = sim
    if records:
        results.update(zip(records, fastpath.simulate_sweep(
            trace, [(sims[spec], config, records[spec]) for spec in records]
        )))

    for spec in machines:
        sim = sims[spec]
        result = results[spec]
        report.cycles[spec] = result.cycles

        if spec in references:
            failed = _dual_violation(
                sim, trace, result, references[spec], records.get(spec),
                check_telemetry,
            )
            if failed is not None:
                check, message = failed
                violation(check, spec, message)

        if spec.split(":", 1)[0] in _BOUND_EXEMPT_HEADS:
            continue
        if result.cycles < dataflow.makespan:
            violation(
                "dataflow-bound",
                spec,
                f"{result.cycles} cycles beats the pseudo-dataflow "
                f"critical path of {dataflow.makespan}",
            )
        if result.cycles < resource.makespan:
            violation(
                "resource-bound",
                spec,
                f"{result.cycles} cycles beats the resource bound "
                f"of {resource.makespan} "
                f"(bottleneck {resource.bottleneck})",
            )

    for edge in edges:
        fast = report.cycles.get(edge.fast)
        slow = report.cycles.get(edge.slow)
        if fast is None or slow is None:
            continue
        if edge.exact:
            if fast != slow:
                violation(
                    "exact-equality",
                    edge.fast,
                    f"expected identical timing to {edge.slow} "
                    f"({edge.claim}); got {fast} vs {slow} cycles",
                    other=edge.slow,
                )
        elif fast > slow:
            violation(
                "partial-order",
                edge.fast,
                f"took {fast} cycles, slower than {edge.slow} at "
                f"{slow} ({edge.claim} should never lose)",
                other=edge.slow,
            )
    return report


def _injected_reference(
    sim, trace: Trace, config: MachineConfig, check_telemetry: bool
) -> ObservedReplay:
    """An injected machine's own reference run (observed when the
    telemetry oracle needs its events)."""
    if check_telemetry and fastpath.family_of(sim) is not None:
        collector = EventCollector()
        result = sim.simulate_observed(trace, config, collector.events.append)
        return ObservedReplay(sim, result, collector, None)
    return ObservedReplay(
        sim, sim.reference_simulate(trace, config), None, None
    )


def _dual_violation(
    sim,
    trace: Trace,
    result: SimulationResult,
    reference: ObservedReplay,
    record: Optional[Schedule],
    check_telemetry: bool,
) -> Optional[Tuple[str, str]]:
    """``(check, message)`` for the first way the fast path's *result*
    and recorded schedule differ from the *reference* replay: cycles,
    then the schedule, then (with *check_telemetry*) the telemetry
    record."""
    if result.cycles != reference.result.cycles:
        return "fastpath-dual", (
            f"simulate() reported {result.cycles} cycles but the reference "
            f"loop reported {reference.result.cycles}; the compiled fast "
            "path must be bit-identical to the reference loop"
        )
    schedule = reference.schedule
    if record is not None and schedule is not None and record != schedule:
        for seq, (fast, ref) in enumerate(
            zip_longest(record, schedule)
        ):
            if fast != ref:
                return "fastpath-dual", (
                    f"the fast path scheduled seq {seq} at (issue, "
                    f"resolution) {fast} but the reference loop's events "
                    f"give {ref}; the compiled fast path must be "
                    "bit-identical to the reference loop"
                )
    collector = reference.collector
    if not check_telemetry or collector is None:
        return None
    fast_telemetry = SimTelemetry.from_detail(result.detail)
    if fast_telemetry is None:
        return None
    expected_telemetry = telemetry_from_events(
        collector.events,
        trace=trace,
        cycles=reference.result.cycles,
        family=fastpath.family_of(sim),
        issue_units=getattr(sim, "issue_units", 0),
    )
    if fast_telemetry == expected_telemetry:
        return None
    fields = [
        name
        for name in (
            "instructions", "cycles", "stall_cycles", "fu_busy_cycles",
            "issue_width", "occupancy", "flushes", "flush_cycles",
        )
        if getattr(fast_telemetry, name) != getattr(expected_telemetry, name)
    ]
    return "telemetry", (
        "fast-path telemetry diverges from the event-derived record in "
        f"{', '.join(fields)}; the aggregate counters must be bit-identical"
    )
