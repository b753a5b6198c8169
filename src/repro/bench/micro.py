"""The seeded micro-benchmark suite behind ``repro bench``.

Three benchmark families, all deterministic in their workloads (fuzzed
traces come from fixed seeds, tables run at the pinned ``SMALL_SIZES``):

* ``machine.<spec>.{fast,reference,speedup}`` -- replay throughput
  (instructions/second) of the compiled fast path
  (:mod:`repro.core.fastpath`) and the event-capable reference loop on
  the same fuzzed traces, plus their ratio.  Every measured machine must
  expose ``reference_simulate``; cycle counts are asserted identical
  before any timing, so a fast-path divergence fails the benchmark
  rather than producing a fast wrong number.
* ``sweep.<label>.{batch,perspec,speedup}`` -- one
  :func:`~repro.core.fastpath.simulate_sweep` call per trace against
  each member's own ``simulate`` (its per-spec loop): ``ooo:4`` under the
  four configs on the fuzzed traces, and Table 7's 192-member RUU grid
  on its kernel traces.
* ``table.<id>.wall`` -- wall seconds to build and run one paper table
  in-process (``workers=1``, no cache): the end-to-end single-core cost
  a contributor pays per golden-table check.
* ``engine.<id>.{cold,warm}`` -- the same table through
  :func:`repro.harness.engine.run_plan` against a fresh
  :class:`~repro.trace.DiskCache` (cold) and again on the now-populated
  store (warm).

Methodology: variants are timed in interleaved rounds and compared on
their minimum round time -- the minimum is the least noisy location
estimator on a shared machine, and interleaving cancels slow drift.  A
warm-up pass precedes timing so the fast path's per-trace compilation
(cached by trace identity) is excluded from replay throughput.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable, List, Optional, Tuple

from ..core import build_simulator, config_by_name, fastpath
from ..harness.engine import run_plan
from ..harness.plans import build_plan
from ..kernels import SMALL_SIZES
from ..trace import DiskCache
from ..trace.sources import trace_source
from ..verify.fuzz import FuzzSpec, fuzz_trace
from .env import environment_metadata
from .report import BenchReport

__all__ = [
    "BenchOptions",
    "DEFAULT_OPTIONS",
    "QUICK_OPTIONS",
    "run_suite",
]

#: Fast-path machines benchmarked by default: the two scoreboard
#: variants the paper leans on, two in-order widths, and one
#: representative of each dynamic machine's compiled loop (RUU,
#: Tomasulo, out-of-order multi-issue, CDC 6600, and the speculative
#: window machine with its default 2-bit predictor).
DEFAULT_MACHINES: Tuple[str, ...] = (
    "cray",
    "serialmemory",
    "inorder:2",
    "inorder:4",
    "ruu:2:50",
    "tomasulo",
    "ooo:4",
    "cdc6600",
    "spec:50:2bit",
)

Log = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class BenchOptions:
    """Knobs for one suite run (see :data:`QUICK_OPTIONS` for CI)."""

    quick: bool = False
    seeds: int = 40
    trace_length: int = 1024
    rounds: int = 5
    machines: Tuple[str, ...] = DEFAULT_MACHINES
    config: str = "M11BR5"
    # table1 covers the statically scheduled machines; table7 sweeps the
    # RUU, so its wall time tracks the dynamic machines' compiled loops.
    tables: Tuple[str, ...] = ("table1", "table7")
    engine: bool = True
    explore: bool = True
    #: Instructions per explorer workload trace: the e2e exhaustive pass
    #: costs O(grid x this), so the quick preset shortens it.
    explore_trace_length: int = 300


DEFAULT_OPTIONS = BenchOptions()

#: The CI smoke configuration: small enough to finish in well under 30
#: seconds, large enough that the fast-path speedup is unambiguous.
QUICK_OPTIONS = BenchOptions(
    quick=True, seeds=12, trace_length=256, rounds=3, tables=("table1",),
    explore_trace_length=120,
)


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _time_pass(fn, traces, config) -> float:
    start = time.perf_counter()
    for trace in traces:
        fn(trace, config)
    return time.perf_counter() - start


def _bench_machines(options: BenchOptions, report: BenchReport, log: Log):
    config = config_by_name(options.config)
    spec_shape = FuzzSpec(length=options.trace_length)
    traces = [
        fuzz_trace(seed, spec_shape) for seed in range(options.seeds)
    ]
    total_instructions = sum(len(trace) for trace in traces)

    for spec in options.machines:
        simulator = build_simulator(spec)
        reference = getattr(simulator, "reference_simulate", None)
        if reference is None:
            raise ValueError(
                f"machine {spec!r} has no reference_simulate; only "
                "fast-path machines can be replay-benchmarked"
            )

        # Correctness gate plus warm-up (populates the compile cache so
        # timing measures replay, not per-trace compilation).
        for trace in traces:
            fast_cycles = simulator.simulate(trace, config).cycles
            ref_cycles = reference(trace, config).cycles
            if fast_cycles != ref_cycles:
                raise ValueError(
                    f"fast path diverged on {spec} / {trace.name}: "
                    f"{fast_cycles} vs {ref_cycles} cycles -- refusing "
                    "to benchmark a wrong answer"
                )

        fast_times: List[float] = []
        reference_times: List[float] = []
        for _ in range(options.rounds):
            fast_times.append(
                _time_pass(simulator.simulate, traces, config)
            )
            reference_times.append(_time_pass(reference, traces, config))

        fast = total_instructions / min(fast_times)
        ref = total_instructions / min(reference_times)
        report.add(f"machine.{spec}.fast", fast, "instr/s")
        report.add(f"machine.{spec}.reference", ref, "instr/s")
        report.add(f"machine.{spec}.speedup", fast / ref, "x")
        if log:
            log(
                f"  machine.{spec:<14} fast {fast:>12,.0f} instr/s  "
                f"reference {ref:>12,.0f} instr/s  "
                f"speedup {fast / ref:.2f}x"
            )


#: The out-of-order sweep benchmark's machine: the paper's four-unit
#: organisation (the Table 5 family), replayed through all four
#: machine-variant configs as one sweep over the fuzzed traces.
SWEEP_SPEC = "ooo:4"

#: The RUU sweep benchmark replays this table's plan: every distinct
#: (RUU spec, config) member -- 192 of them, four issue widths x six RUU
#: sizes x two bus organisations x four configs -- as one sweep per
#: kernel trace at ``SMALL_SIZES``, the shape whose never-full replays
#: the batch RUU kernel reuses.
RUU_SWEEP_TABLE = "table7"


def _sweeps(options: BenchOptions):
    """``(label, items, traces)`` for each sweep benchmark."""
    from ..core.config import STANDARD_CONFIGS

    spec_shape = FuzzSpec(length=options.trace_length)
    fuzzed = [fuzz_trace(seed, spec_shape) for seed in range(options.seeds)]
    yield (
        SWEEP_SPEC,
        [(build_simulator(SWEEP_SPEC), config) for config in STANDARD_CONFIGS],
        fuzzed,
    )
    plan = build_plan(RUU_SWEEP_TABLE, dict(SMALL_SIZES))
    members = dict.fromkeys((cell.machine, cell.config) for cell in plan.cells)
    yield (
        RUU_SWEEP_TABLE,
        [
            (build_simulator(machine), config_by_name(config))
            for machine, config in members
        ],
        [trace_source(source)
         for source in dict.fromkeys(cell.source for cell in plan.cells)],
    )


def _bench_sweep(options: BenchOptions, report: BenchReport, log: Log):
    """``sweep.<label>.{batch,perspec,speedup}``: one trace, many specs.

    Replays every trace of each :func:`_sweeps` entry through its sweep
    members -- once as one :func:`~repro.core.fastpath.simulate_sweep`
    call per trace and once through each member's own ``simulate`` (one
    per-spec replay per member) -- and reports both throughputs plus
    their ratio.  Cycle counts are asserted identical between the two
    before any timing.
    """
    for label, items, traces in _sweeps(options):
        total = sum(len(trace) for trace in traces) * len(items)

        def batch_pass() -> List[List[int]]:
            return [
                [result.cycles
                 for result in fastpath.simulate_sweep(trace, items)]
                for trace in traces
            ]

        def perspec_pass() -> List[List[int]]:
            return [
                [simulator.simulate(trace, config).cycles
                 for simulator, config in items]
                for trace in traces
            ]

        # Correctness gate plus warm-up: the batch sweep must agree with
        # the per-spec loops on every (trace, member) cell, and both
        # passes populate the compile and sweep-plan caches so timing
        # measures replay, not lowering.
        if batch_pass() != perspec_pass():
            raise ValueError(
                f"batch sweep diverged from per-spec loops on {label} "
                "-- refusing to benchmark a wrong answer"
            )

        batch_times: List[float] = []
        perspec_times: List[float] = []
        for _ in range(options.rounds):
            start = time.perf_counter()
            batch_pass()
            batch_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            perspec_pass()
            perspec_times.append(time.perf_counter() - start)

        batch = total / min(batch_times)
        perspec = total / min(perspec_times)
        report.add(f"sweep.{label}.batch", batch, "instr/s")
        report.add(f"sweep.{label}.perspec", perspec, "instr/s")
        report.add(f"sweep.{label}.speedup", batch / perspec, "x")
        if log:
            log(
                f"  sweep.{label:<16} batch {batch:>12,.0f} instr/s  "
                f"perspec {perspec:>12,.0f} instr/s  "
                f"speedup {batch / perspec:.2f}x"
            )


#: Screen-throughput space: large enough (130,816 candidates) that the
#: vectorised pass dominates any per-call overhead.
SCREEN_SPACE = "family=ruu;width=1..32;window=2..512;bus=nbus,1bus;fu=1..4"

#: End-to-end space: 2,048 RUU candidates, big enough that exhaustive
#: simulation visibly dwarfs the screened run.
E2E_SPACE = "family=ruu;width=1..8;window=2..128:2;bus=nbus,1bus;fu=1,2"


def _bench_explore(options: BenchOptions, report: BenchReport, log: Log):
    """``explore.screen.rate`` + ``explore.e2e.{explore,exhaustive,speedup}``.

    The screen benchmark scores :data:`SCREEN_SPACE` analytically (min
    over the usual interleaved rounds).  The end-to-end benchmark runs
    one budgeted explorer pass over :data:`E2E_SPACE` and the explorer's
    exact-stage plan (:func:`~repro.explore.exact.simulate_specs`) over
    every candidate of the same grid -- a single pass
    each, because the exhaustive side costs seconds by design and its
    duration is what the speedup divides by.
    """
    from ..explore import explore as explore_run
    from ..explore.exact import simulate_specs
    from ..explore.model import build_anchors
    from ..explore.screen import screen_space
    from ..explore.space import expand_space, parse_space

    n = options.explore_trace_length
    sources = [f"branchy:seed=3:n={n}", f"pointer:seed=5:n={n}"]
    config = options.config

    space = parse_space(SCREEN_SPACE, default_config=config)
    anchors = [
        build_anchors(source, config_by_name(config)) for source in sources
    ]
    screen_times: List[float] = []
    for _ in range(options.rounds):
        screen_times.append(
            screen_space(space, anchors, cache=None).seconds
        )
    rate = space.size / min(screen_times)
    report.add("explore.screen.rate", rate, "configs/s")
    if log:
        log(f"  explore.screen.rate {rate:>14,.0f} configs/s "
            f"({space.size} candidates)")

    explore_times: List[float] = []
    simulated = 0
    for _ in range(options.rounds):
        start = time.perf_counter()
        run = explore_run(
            E2E_SPACE, sources, config=config, budget=20, audit=4,
            workers=1, cache=None, observe=False,
        )
        explore_times.append(time.perf_counter() - start)
        simulated = run.simulated_count
    grid = expand_space(parse_space(E2E_SPACE, default_config=config))
    specs = [grid.machine_spec(i) for i in range(grid.n)]
    start = time.perf_counter()
    simulate_specs(specs, sources, config=config, workers=1, cache=None)
    exhaustive = time.perf_counter() - start

    explored = min(explore_times)
    report.add("explore.e2e.explore", explored, "s", higher_is_better=False)
    report.add(
        "explore.e2e.exhaustive", exhaustive, "s", higher_is_better=False
    )
    report.add("explore.e2e.speedup", exhaustive / explored, "x")
    if log:
        log(
            f"  explore.e2e      explore {explored * 1e3:>8.1f} ms "
            f"({simulated} of {grid.n} simulated)  "
            f"exhaustive {exhaustive * 1e3:>8.1f} ms  "
            f"speedup {exhaustive / explored:.1f}x"
        )


def _bench_tables(options: BenchOptions, report: BenchReport, log: Log):
    sizes = dict(SMALL_SIZES)
    for table_id in options.tables:
        times: List[float] = []
        for _ in range(options.rounds):
            start = time.perf_counter()
            plan = build_plan(table_id, sizes)
            run_plan(plan, workers=1, cache=None)
            times.append(time.perf_counter() - start)
        wall = min(times)
        report.add(
            f"table.{table_id}.wall", wall, "s", higher_is_better=False
        )
        if log:
            log(f"  table.{table_id}.wall {wall * 1e3:>10.1f} ms")


def _bench_engine(options: BenchOptions, report: BenchReport, log: Log):
    sizes = dict(SMALL_SIZES)
    for table_id in options.tables:
        plan = build_plan(table_id, sizes)
        cold_times: List[float] = []
        warm_times: List[float] = []
        for _ in range(options.rounds):
            with tempfile.TemporaryDirectory() as tmp:
                store = DiskCache(root=tmp)
                start = time.perf_counter()
                run_plan(plan, workers=1, cache=store)
                cold_times.append(time.perf_counter() - start)
                start = time.perf_counter()
                run_plan(plan, workers=1, cache=store)
                warm_times.append(time.perf_counter() - start)
        cold, warm = min(cold_times), min(warm_times)
        report.add(
            f"engine.{table_id}.cold", cold, "s", higher_is_better=False
        )
        report.add(
            f"engine.{table_id}.warm", warm, "s", higher_is_better=False
        )
        if log:
            log(
                f"  engine.{table_id} cold {cold * 1e3:>8.1f} ms  "
                f"warm {warm * 1e3:>8.1f} ms"
            )


def run_suite(
    options: Optional[BenchOptions] = None,
    *,
    name: str = "fastpath",
    log: Log = None,
) -> BenchReport:
    """Run the full micro-benchmark suite and return its report.

    The fast path is pinned enabled for the duration (and restored
    afterwards), so a ``REPRO_FASTPATH=0`` environment still measures
    what the suite claims to measure.
    """
    options = options or DEFAULT_OPTIONS
    report = BenchReport(
        name=name,
        created=_now(),
        environment=environment_metadata(),
        parameters={
            "quick": options.quick,
            "seeds": options.seeds,
            "trace_length": options.trace_length,
            "rounds": options.rounds,
            "machines": list(options.machines),
            "config": options.config,
            "tables": list(options.tables),
            "explore": options.explore,
            "explore_trace_length": options.explore_trace_length,
        },
    )
    previous = fastpath.set_enabled(True)
    try:
        if log:
            log(f"bench {name}: {len(options.machines)} machines, "
                f"{options.seeds} traces x {options.trace_length} instrs, "
                f"min of {options.rounds} rounds")
        _bench_machines(options, report, log)
        _bench_sweep(options, report, log)
        if options.explore:
            _bench_explore(options, report, log)
        if options.tables:
            _bench_tables(options, report, log)
        if options.engine and options.tables:
            _bench_engine(options, report, log)
    finally:
        fastpath.set_enabled(previous)
    return report


def options_from(
    *,
    quick: bool = False,
    seeds: Optional[int] = None,
    trace_length: Optional[int] = None,
    rounds: Optional[int] = None,
    machines: Optional[Tuple[str, ...]] = None,
    no_engine: bool = False,
    no_explore: bool = False,
) -> BenchOptions:
    """The CLI's option builder: quick preset plus explicit overrides."""
    options = QUICK_OPTIONS if quick else DEFAULT_OPTIONS
    overrides = {}
    if seeds is not None:
        overrides["seeds"] = seeds
    if trace_length is not None:
        overrides["trace_length"] = trace_length
    if rounds is not None:
        overrides["rounds"] = rounds
    if machines is not None:
        overrides["machines"] = tuple(machines)
    if no_engine:
        overrides["engine"] = False
    if no_explore:
        overrides["explore"] = False
    return replace(options, **overrides) if overrides else options
