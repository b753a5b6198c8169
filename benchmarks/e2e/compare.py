#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs against the bounds.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the JSON lines ``run.py --out`` appends, one per run;
only untraced runs (``--trace 0``) are compared.  A is the baseline
(the parent commit), B the candidate.  For every (workload, end-to-end
metric) pair the verdict applies that metric's bound from
``BENCHMARK.json``:

``REGRESSION``  B's median is worse than A's by more than the bound;
``unresolved``  the run-to-run spread (interquartile range over median,
                the wider of A and B) exceeds the bound, and B is not
                better on every run;
``better``      every run of B beats every run of A;
``ok``          within the bound;
``FAILED``      some run of B was incorrect or had failed operations.

Each workload prints as its own row, with each side's median, first
and third quartiles and spread per metric.  Exits 1 on any REGRESSION
or FAILED verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def quartiles(values: Sequence[float]) -> str:
    """``median [q1, q3] ±spread`` of one side's runs."""
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    low, _, high = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{low:.4g}, {high:.4g}] ±{spread(values):.1%}"


def verdict(
    base: Sequence[float],
    candidate: Sequence[float],
    bound: float,
    better: str,
) -> Tuple[str, float]:
    """``(verdict, relative change of the median, positive = worse)``."""
    sign = 1.0 if better == "lower" else -1.0
    before = statistics.median(base)
    worse = sign * (statistics.median(candidate) - before) / before
    if all(sign * b < sign * a for a in base for b in candidate):
        return "better", worse
    if max(spread(base), spread(candidate)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    return "ok", worse


def load_runs(path: Path) -> List[Dict]:
    runs = [json.loads(line) for line in path.read_text().splitlines() if line]
    return [run for run in runs if run["trace"] == 0]


def compare(base: List[Dict], candidate: List[Dict], spec: Dict) -> Tuple[List[str], bool]:
    """The report lines and whether the candidate passes."""
    lines = []
    passed = True
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a = [run for run in base if run["workload"] == workload]
        b = [run for run in candidate if run["workload"] == workload]
        if not a or not b:
            lines.append(f"{workload:12} (no runs on one side)")
            continue
        cells = []
        if not all(run["correct"] and run["failed"] == 0 for run in b):
            cells.append("FAILED")
            passed = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_values = [run["metrics"][name]["value"] for run in a]
            values = [run["metrics"][name]["value"] for run in b]
            state, worse = verdict(
                base_values, values, metric["bound"], metric["better"]
            )
            passed = passed and state != "REGRESSION"
            cells.append(
                f"{name} {quartiles(base_values)} -> {quartiles(values)} "
                f"{worse:+.1%} {state}"
            )
        lines.append(f"{workload:12} n={len(a)}/{len(b)}  " + "  ".join(cells))
    return lines, passed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, passed = compare(
        load_runs(Path(argv[0])), load_runs(Path(argv[1])), spec
    )
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
