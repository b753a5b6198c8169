"""Seeded micro-benchmarks with persisted, comparable reports.

The package behind ``repro bench``:

* :mod:`repro.bench.micro` -- the suite (fast-path vs reference replay
  throughput per machine, batch sweep vs per-spec replay);
* :mod:`repro.bench.report` -- the ``repro-bench/v1`` JSON schema,
  validation, and baseline comparison with a noise threshold;
* :mod:`repro.bench.env` -- environment metadata stamped into reports.

Typical use::

    from repro.bench import QUICK_OPTIONS, run_suite, compare_reports

    report = run_suite(QUICK_OPTIONS, log=print)
    report.write("BENCH_quick.json")
    baseline = load_report("benchmarks/baselines/BENCH_quick.json")
    comparison = compare_reports(report, baseline)
    assert comparison.ok, comparison.regressions
"""

from .env import environment_metadata, environments_comparable
from .micro import (
    BenchOptions,
    DEFAULT_OPTIONS,
    QUICK_OPTIONS,
    options_from,
    run_suite,
)
from .report import (
    SCHEMA,
    BenchReport,
    BenchResult,
    Comparison,
    Delta,
    compare_reports,
    load_report,
    validate_payload,
)

__all__ = [
    "BenchOptions",
    "BenchReport",
    "BenchResult",
    "Comparison",
    "DEFAULT_OPTIONS",
    "Delta",
    "QUICK_OPTIONS",
    "SCHEMA",
    "compare_reports",
    "environment_metadata",
    "environments_comparable",
    "load_report",
    "options_from",
    "run_suite",
    "validate_payload",
]
