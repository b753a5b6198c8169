"""Overhead gate for the disabled event hooks of the reference loop.

The event-hook plumbing in :meth:`ScoreboardMachine.simulate` must be
free when no callback is attached.  The hooked issue loop
(``simulate()`` with the fast path off: the reference loop,
``emit=None``) is measured against the seed implementation, frozen with
no hook code in ``seed_scoreboard.py`` next to this script, over the
full table-1 scoreboard workload (all 14 Livermore loops).  Rounds are
interleaved and compared on the *minimum* round time -- the least noisy
location estimator on a shared machine; interleaving cancels slow
drift::

    PYTHONPATH=src python benchmarks/bench_hooks.py --max-overhead 0.02

CI runs exactly that.  Cycle counts are also asserted bit-identical
between the two loops, so the gate doubles as a correctness check.  The
compiled fast paths' speed over the reference loops is measured by
``repro bench`` (``machine.<spec>.speedup``), not here.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from repro.core import config_by_name, fastpath
from repro.core.scoreboard import cray_like_machine
from repro.kernels import ALL_LOOPS, build_kernel
from seed_scoreboard import seed_simulate


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
    seed = functools.partial(seed_simulate, machine)
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
            reference = seed(trace, config)
            if hooked.cycles != reference.cycles:
                raise SystemExit(
                    f"cycle mismatch on {trace.name}: "
                    f"simulate={hooked.cycles} reference={reference.cycles}"
                )

        hooked_times, reference_times = [], []
        for _ in range(rounds):
            hooked_times.append(time_pass(machine.simulate, traces, config))
            reference_times.append(time_pass(seed, traces, config))
    finally:
        fastpath.set_enabled(previous)
    return min(hooked_times), min(reference_times)


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
    args = parser.parse_args(argv)

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
        print(
            f"FAIL: disabled-hook overhead {overhead:.2%} exceeds budget "
            f"{args.max_overhead:.2%}",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
