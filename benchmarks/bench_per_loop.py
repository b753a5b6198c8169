"""Appendix: per-loop issue rates behind the paper's harmonic means.

The paper reports only class harmonic means; this archive shows every
loop individually on M11BR5 across the main machine spectrum, next to its
actual (dataflow + resource) limit -- where the class differences come
from.  It is the ``per-loop`` plan, run through the engine.

Run:  pytest benchmarks/bench_per_loop.py --benchmark-only -s
"""

from __future__ import annotations

import functools
import pathlib

import repro.api as api

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def test_per_loop_breakdown(benchmark):
    run = benchmark.pedantic(
        functools.partial(api.run_table, "per-loop", workers=1, cache=False),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    table = run.table
    report = table.render(precision=3)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "per_loop.txt").write_text(report + "\n")
    print()
    print(report)

    # Spot-check the lattice per loop, up to the loop's actual limit.
    for label, values in table.rows:
        assert values["Simple"] <= values["CRAY-like"] + 1e-9
        assert values["CRAY-like"] <= values["RUU x4 R=50"] + 1e-9
        assert values["RUU x4 R=50"] <= values["actual"] * 1.0001
