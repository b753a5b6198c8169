"""Extended workloads: four later Livermore kernels through the spectrum.

Kernels 18 (2-D hydro with synthesised divides), 19 (forward+backward
recurrence), 21 (matrix product) and 24 (first minimum, data-dependent
branches) stress behaviours the paper's 14 loops do not.  This benchmark
runs them through the main machine spectrum on M11BR5, plus the
speculative ``spec`` machine (x4, window 50, 2-bit predictor), which is
contention-free past issue.

Expected shapes: 18 and 21 behave like rich vectorizable loops (big RUU
gains); 19 is recurrence-bound; 24 is the control-flow wall -- the RUU
gains almost nothing because every iteration's issue hangs on an
unpredictable comparison branch, exactly the failure mode Section 6 of
the paper flags ("it is crucial that steps be taken to prevent
instruction blockage at the issue stage").

Run:  pytest benchmarks/bench_extended_workloads.py --benchmark-only -s
"""

from __future__ import annotations

import pathlib

from repro.core import (
    M11BR5,
    OutOfOrderMultiIssueMachine,
    RUUMachine,
    build_simulator,
    cray_like_machine,
)
from repro.kernels.extended import EXTENDED_LOOPS, build_extended
from repro.limits import compute_limits

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

_MACHINES = (
    ("CRAY-like", cray_like_machine()),
    ("ooo x4", OutOfOrderMultiIssueMachine(4)),
    ("RUU x4 R=50", RUUMachine(4, 50)),
    ("spec x4 2-bit", build_simulator("spec:50:2bit:units=4")),
)


def test_extended_workloads(benchmark):
    def build():
        rows = []
        for number in EXTENDED_LOOPS:
            trace = build_extended(number).verify()
            values = {
                name: machine.issue_rate(trace, M11BR5)
                for name, machine in _MACHINES
            }
            values["limit"] = compute_limits(trace, M11BR5).actual_rate
            rows.append((number, len(trace), values))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1, warmup_rounds=0)

    lines = ["Extended Livermore kernels (M11BR5)", ""]
    header = f"{'kernel':<8}{'dyn':>7}" + "".join(
        f"{name:>15}" for name, _ in _MACHINES
    ) + f"{'limit':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for number, dyn, values in rows:
        lines.append(
            f"{number:<8}{dyn:>7}"
            + "".join(f"{values[name]:>15.3f}" for name, _ in _MACHINES)
            + f"{values['limit']:>8.3f}"
        )
    report = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "extended_workloads.txt").write_text(report + "\n")
    print()
    print(report)

    by_number = {number: values for number, _, values in rows}
    # Kernel 24: the control-flow wall (RUU barely beats issue blocking,
    # and even prediction only helps as far as the comparison chain allows).
    assert by_number[24]["RUU x4 R=50"] < by_number[24]["CRAY-like"] * 1.25
    # Kernels 18 and 21: dependency resolution pays off big.
    for number in (18, 21):
        assert (
            by_number[number]["RUU x4 R=50"]
            > by_number[number]["CRAY-like"] * 2.0
        )
    # The non-speculative machines respect the (branch-serialised)
    # dataflow limit; the predictor variant may exceed it -- speculation
    # removes the control constraint the limit assumes.  Kernel 24 is the
    # showcase: min-updates are rare, so a 2-bit predictor is ~95%+
    # accurate and turns the control-flow wall into a 9x speedup.
    for number, _, values in rows:
        for name, _ in _MACHINES:
            if "2-bit" in name:
                continue
            assert values[name] <= values["limit"] * 1.0001
    assert by_number[24]["spec x4 2-bit"] > by_number[24]["limit"]
