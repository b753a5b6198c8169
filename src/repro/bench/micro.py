"""The seeded micro-benchmark suite behind ``repro bench``.

Two benchmark families, the replay-layer ratios that the end-to-end
benchmark (``benchmarks/e2e``) cannot take, both deterministic in their
workloads (fuzzed traces come from fixed seeds, Table 7 runs at the
pinned ``SMALL_SIZES``):

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

Table wall time, engine cold/warm cache behaviour and explorer speed are
end-to-end facts: the e2e ``tables-cold``, ``tables-warm`` and
``explore`` workloads measure them at full size.

Methodology: variants are timed in interleaved rounds and compared on
their minimum round time -- the minimum is the least noisy location
estimator on a shared machine, and interleaving cancels slow drift.  A
warm-up pass precedes timing so the fast path's per-trace compilation
(cached by trace identity) is excluded from replay throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable, List, Optional, Tuple

from ..core import build_simulator, config_by_name, fastpath
from ..harness.engine import resolve_trace
from ..harness.plans import build_plan
from ..kernels import SMALL_SIZES
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


#: The machine config every benchmark replays under.
CONFIG = "M11BR5"


@dataclass(frozen=True)
class BenchOptions:
    """Knobs for one suite run (see :data:`QUICK_OPTIONS` for CI)."""

    quick: bool = False
    seeds: int = 40
    trace_length: int = 1024
    rounds: int = 5
    machines: Tuple[str, ...] = DEFAULT_MACHINES


DEFAULT_OPTIONS = BenchOptions()

#: The CI smoke configuration: small enough to finish in well under 30
#: seconds, large enough that the fast-path speedup is unambiguous.
QUICK_OPTIONS = BenchOptions(quick=True, seeds=12, trace_length=256, rounds=3)


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _time_pass(fn, traces, config) -> float:
    start = time.perf_counter()
    for trace in traces:
        fn(trace, config)
    return time.perf_counter() - start


def _bench_machines(options: BenchOptions, report: BenchReport, log: Log):
    config = config_by_name(CONFIG)
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
        [resolve_trace(source)[0]
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

    Both sides run the same kernels: an out-of-order member's own
    ``simulate`` is a one-member call into the batch sweep's
    out-of-order kernel, and an RUU member's runs the one RUU loop.  So
    ``perspec`` measures what a member costs replayed alone -- for
    ``ooo:4`` the ratio is about 1x by design (the full-size suite's
    test holds ``perspec >= 0.8 * batch``) -- and the Table 7 ratio is
    what the sweep's reuse of never-full RUU replays saves.  The ratio
    has no floor of its own: it moves with host load, so the reuse it
    stands for is pinned as an exact count of reused runs instead
    (``tests/test_fastpath_batch.py``).
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
            "config": CONFIG,
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
    return replace(options, **overrides) if overrides else options
