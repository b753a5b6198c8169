"""Overhead gates for the event hooks and the compiled fast paths.

Two budgets, one methodology (interleaved rounds, compared on the
*minimum* round time -- the least noisy location estimator on a shared
machine; interleaving cancels slow drift):

* **disabled hooks** -- the event-hook plumbing in
  :meth:`ScoreboardMachine.simulate` must be free when no callback is
  attached.  The hooked issue loop (``simulate()`` with
  ``on_event=None``) is measured against the seed implementation
  preserved verbatim as ``reference_simulate()``, over the full table-1
  scoreboard workload (all 14 Livermore loops).
* **fast-path floor** -- the compiled fast loops, which always fill the
  aggregate :mod:`repro.obs.telemetry` counters, must stay well ahead of
  the reference loops they replace.  The workload is all six machine
  families (scoreboard, CDC 6600, Tomasulo, in-order and out-of-order
  multiple issue, RUU) over the full table-1 trace set; each round
  times the fast path and the reference loop, interleaved, and
  per-family minimums are summed.  The enforced statistic is the
  aggregate fast-vs-reference speedup; the per-family ratios are
  printed alongside::

    PYTHONPATH=src python benchmarks/bench_hooks.py \\
        --max-overhead 0.02 --min-fast-speedup 3

CI runs exactly that.  Cycle counts are also asserted bit-identical
across every variant, so the gates double as correctness checks.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import build_simulator, config_by_name, fastpath
from repro.core.scoreboard import cray_like_machine
from repro.kernels import ALL_LOOPS, build_kernel

#: One representative machine per family with a compiled fast loop.
FAST_SPECS = (
    "cray",
    "cdc6600",
    "tomasulo",
    "inorder:4",
    "ooo:4",
    "ruu:2:50",
)


def build_workload(config_name: str):
    """Verified traces for every loop at its default problem size."""
    config = config_by_name(config_name)
    traces = [build_kernel(loop, None).trace() for loop in ALL_LOOPS]
    return traces, config


def time_pass(fn, traces, config) -> float:
    start = time.perf_counter()
    for trace in traces:
        fn(trace, config)
    return time.perf_counter() - start


def measure(rounds: int, config_name: str):
    machine = cray_like_machine()
    traces, config = build_workload(config_name)

    # This gate measures the *hook plumbing* in the reference issue loop,
    # not the compiled fast path (repro.bench covers that), so pin the
    # fast-path dispatch off for the duration.
    previous = fastpath.set_enabled(False)
    try:
        # Correctness first: hooks-disabled must be bit-identical to the
        # seed.
        for trace in traces:
            hooked = machine.simulate(trace, config)
            reference = machine.reference_simulate(trace, config)
            if hooked.cycles != reference.cycles:
                raise SystemExit(
                    f"cycle mismatch on {trace.name}: "
                    f"simulate={hooked.cycles} reference={reference.cycles}"
                )

        hooked_times, reference_times = [], []
        for _ in range(rounds):
            hooked_times.append(time_pass(machine.simulate, traces, config))
            reference_times.append(
                time_pass(machine.reference_simulate, traces, config)
            )
    finally:
        fastpath.set_enabled(previous)
    return min(hooked_times), min(reference_times)


def measure_fast(rounds: int, config_name: str):
    """Per-family ``(spec, fast, reference)`` minimum times.

    Both run the table-1 workload for each of :data:`FAST_SPECS`: the
    first through the compiled fast path (telemetry included), the
    second through the preserved reference loop.  Rounds are interleaved
    per family and each family keeps its own minimums (its best round
    need not be the same round).  Cycle counts are asserted identical
    between the two for every (machine, trace) pair.
    """
    machines = [build_simulator(spec) for spec in FAST_SPECS]
    traces, config = build_workload(config_name)
    if not fastpath.enabled():
        raise SystemExit("fast path disabled; the fast-path floor needs it")

    for machine in machines:
        for trace in traces:
            fast = machine.simulate(trace, config)
            reference = machine.reference_simulate(trace, config)
            if fast.cycles != reference.cycles:
                raise SystemExit(
                    f"cycle mismatch on {trace.name} "
                    f"({machine.name}): simulate={fast.cycles} "
                    f"reference={reference.cycles}"
                )

    n = len(machines)
    fast_best = [float("inf")] * n
    reference_best = [float("inf")] * n
    for _ in range(rounds):
        for index, machine in enumerate(machines):
            fast = time_pass(machine.simulate, traces, config)
            reference = time_pass(machine.reference_simulate, traces, config)
            if fast < fast_best[index]:
                fast_best[index] = fast
            if reference < reference_best[index]:
                reference_best[index] = reference
    return list(zip(FAST_SPECS, fast_best, reference_best))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=7,
        help="interleaved timing rounds (min is compared; default 7)",
    )
    parser.add_argument(
        "--config", default="M11BR5", help="machine config (default M11BR5)"
    )
    parser.add_argument(
        "--max-overhead", type=float, default=None,
        help="fail if (hooked-reference)/reference exceeds this fraction",
    )
    parser.add_argument(
        "--min-fast-speedup", type=float, default=None,
        help=(
            "fail if the aggregate fast-path speedup over the reference "
            "loops drops below this factor"
        ),
    )
    args = parser.parse_args(argv)
    failures = []

    hooked, reference = measure(args.rounds, args.config)
    overhead = (hooked - reference) / reference
    print(
        f"scoreboard table-1 workload ({args.config}, "
        f"min of {args.rounds} rounds):"
    )
    print(f"  reference (seed loop)    {reference * 1e3:8.2f} ms")
    print(f"  simulate, hooks disabled {hooked * 1e3:8.2f} ms")
    print(f"  overhead                 {overhead:+8.2%}")
    if args.max_overhead is not None and overhead > args.max_overhead:
        failures.append(
            f"disabled-hook overhead {overhead:.2%} exceeds budget "
            f"{args.max_overhead:.2%}"
        )

    families = measure_fast(args.rounds, args.config)
    print(
        "compiled fast paths (telemetry included) vs reference loops, "
        "same trace set:"
    )
    print(f"  {'family':<10} {'fast (ms)':>10} {'ref (ms)':>10} {'ratio':>8}")
    for spec, fast, reference_time in families:
        print(
            f"  {spec:<10} {fast * 1e3:10.2f} {reference_time * 1e3:10.2f} "
            f"{reference_time / fast:7.2f}x"
        )
    fast_total = sum(fast for _, fast, _ in families)
    reference_total = sum(ref for _, _, ref in families)
    speedup = reference_total / fast_total
    print(
        f"  {'all':<10} {fast_total * 1e3:10.2f} "
        f"{reference_total * 1e3:10.2f} {speedup:7.2f}x (enforced)"
    )
    if args.min_fast_speedup is not None and speedup < args.min_fast_speedup:
        failures.append(
            f"fast-path speedup {speedup:.2f}x is below the "
            f"{args.min_fast_speedup:.1f}x floor"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    budgets = [
        text
        for flag, text in (
            (args.max_overhead, f"hooks {args.max_overhead:.2%}"
             if args.max_overhead is not None else ""),
            (args.min_fast_speedup, f"speedup {args.min_fast_speedup:.1f}x"
             if args.min_fast_speedup is not None else ""),
        )
        if flag is not None
    ]
    print("OK" if not budgets else f"OK: within budgets ({', '.join(budgets)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
