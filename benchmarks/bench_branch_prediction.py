"""Extension study: what branch prediction recovers (the paper's Section 2
exclusion, made quantitative).

The paper's machines never guess: "Execution of the branch target is not
started until the branch outcome is known."  Since branch resolution is a
first-order limit in every table, this benchmark runs the classic
predictor family on the speculative ``spec`` machine (x4, window 50; see
docs/speculation.md): a correctly predicted branch lets issue continue
the next cycle; a misprediction costs the full non-speculative resolution
(plus an optional recovery penalty).  The paper's non-speculative RUU
(x4, R=50) is the reference row.  The spec family is contention-free
past issue, so its ``none`` row sits above the paper's RUU row; the
predictor gains are measured against ``none``.

Expected shapes: loop-closing branches are highly predictable (>95% at
full size), so every predictor recovers most of the BR5 branch blockage;
the speculative slow-branch machine approaches -- and with the fast
branch exceeds -- the non-speculative fast-branch numbers.

Run:  pytest benchmarks/bench_branch_prediction.py --benchmark-only -s
"""

from __future__ import annotations

import pathlib

from repro.core import M5BR2, M11BR5, build_simulator
from repro.harness import harmonic_mean
from repro.kernels import SCALAR_LOOPS, VECTORIZABLE_LOOPS, build_kernel

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

_CLASSES = {"scalar": SCALAR_LOOPS, "vectorizable": VECTORIZABLE_LOOPS}

_VARIANTS = [
    ("RUU x4 R=50 (paper)", "ruu:4:50"),
    ("no prediction", "spec:50:none:units=4"),
    ("always-taken", "spec:50:always:units=4"),
    ("backward-taken", "spec:50:btfn:units=4"),
    ("1-bit", "spec:50:1bit:units=4"),
    ("2-bit", "spec:50:2bit:units=4"),
    ("2-bit, 4-cycle penalty", "spec:50:2bit:units=4:rp=4"),
]


def test_branch_prediction_study(benchmark):
    traces = {
        label: [build_kernel(n).trace() for n in loops]
        for label, loops in _CLASSES.items()
    }

    def build():
        rows = []
        for label, spec in _VARIANTS:
            machine = build_simulator(spec)
            for config in (M11BR5, M5BR2):
                values = {}
                for class_label, class_traces in traces.items():
                    values[f"{class_label} {config.name}"] = harmonic_mean(
                        machine.issue_rate(trace, config)
                        for trace in class_traces
                    )
                rows.append((label, config.name, values))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1, warmup_rounds=0)

    columns = ["scalar M11BR5", "scalar M5BR2", "vectorizable M11BR5",
               "vectorizable M5BR2"]
    merged = {}
    for label, _, values in rows:
        merged.setdefault(label, {}).update(values)

    lines = [
        "Branch prediction on the speculative machine (x4, window 50)",
        "",
    ]
    lines.append(f"{'variant':<26}" + "".join(f"{c:>22}" for c in columns))
    lines.append("-" * (26 + 22 * len(columns)))
    for label, values in merged.items():
        lines.append(
            f"{label:<26}"
            + "".join(f"{values[c]:>22.3f}" for c in columns)
        )
    report = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "branch_prediction.txt").write_text(report + "\n")
    print()
    print(report)

    base = merged["no prediction"]
    best = merged["2-bit"]
    for column in columns:
        assert best[column] >= base[column] * 1.05  # prediction really pays
    penalised = merged["2-bit, 4-cycle penalty"]
    for column in columns:
        assert penalised[column] <= best[column] + 1e-9
