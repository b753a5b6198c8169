"""The public facade: one entry path for every experiment.

``repro.api`` is the single surface through which the CLI, the legacy
runner, and the benchmark scripts run experiments::

    import repro.api as api

    run = api.run_table("table7", workers=4)     # parallel + cached
    print(run.render_report())

    result = api.simulate("kernel:5", "ruu:2:50")  # one trace, one machine
    report = api.limits("kernel:5")                # dataflow/resource limits

Key facts:

* :func:`run_table` decomposes a table into independent
  ``(source, machine-spec, config)`` cells, evaluates them as one sweep
  group per trace source over a process pool (``workers``, default
  ``os.cpu_count()``), and merges results deterministically -- parallel
  output is bit-identical to serial.
* Results and traces persist in a content-addressed store under
  ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``); pass ``cache=False``
  to opt out.  Cache state can only affect timing, never results.
* ``observe=True`` additionally records a span trace and writes a durable
  run manifest (config, git SHA, timings, metric snapshot) next to the
  cache entries; :func:`list_runs` / :func:`find_run` read them back for
  ``repro stats`` and ``repro trace-export``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .analysis import stall_breakdown
from .bench import (
    BenchOptions,
    BenchReport,
    Comparison,
    compare_reports as _compare_reports,
    load_report as _load_bench_report,
    options_from as _bench_options_from,
    run_suite as _run_bench_suite,
)
from .core import SimulationResult, build_simulator, config_by_name
from .core import fastpath
from .explore import ExploreRun, SpaceError, explore as _explore
from .explore.exact import simulate_specs
from .core.registry import (
    ParsedSpec,
    UnknownSpecError,
    available_specs,
    list_specs,
    parse_spec as _parse_spec_string,
)
from .harness.aggregate import relative_error
from .harness.engine import EngineStats, resolve_trace as _resolve_trace, run_plan
from .harness.progress import ProgressCallback, ProgressEvent
from .harness.paper import PAPER_SECTION33, PAPER_SECTION33_TABLE, PAPER_TABLES
from .harness.plans import PLAN_BUILDERS, build_plan
from .harness.tables import ResultTable, compare_tables
from .limits import LoopLimits, compute_limits
from .obs.manifest import RunManifest, find_manifest, list_manifests
from .verify import (
    FuzzSpec,
    VerifyOptions,
    VerifyReport,
    run_verification,
)
from .verify.oracle import DEFAULT_ORACLE_MACHINES
from .trace import (
    DiskCache,
    Trace,
    TraceStats,
    default_cache_dir,
    trace_stats as _trace_stats,
)
from .trace.importer import TraceImportError, export_trace, import_trace
from .trace.stats import IRStats, ir_statistics
from .trace.sources import (
    ParsedTraceSpec,
    TraceSource,
    UnknownTraceSourceError,
    available_sources as _available_sources,
    kernel_instance,
    list_sources as _list_sources,
    parse_trace_spec as _parse_trace_spec_string,
)

Sizes = Optional[Mapping[int, int]]

__all__ = [
    "BenchOptions",
    "BenchReport",
    "ExploreRun",
    "IRStats",
    "MachineInfo",
    "ParsedSpec",
    "ParsedTraceSpec",
    "ProgressCallback",
    "ProgressEvent",
    "RunManifest",
    "SpaceError",
    "SweepRun",
    "TableRun",
    "TraceImportError",
    "TraceSource",
    "UnknownSpecError",
    "UnknownTraceSourceError",
    "VerifyReport",
    "bench_options",
    "capture",
    "compare_bench",
    "disassemble",
    "explore",
    "find_run",
    "limits",
    "list_machines",
    "list_runs",
    "list_tables",
    "list_trace_sources",
    "load_bench_report",
    "machine_info",
    "parse_spec",
    "parse_trace_spec",
    "resolve_trace",
    "run_bench",
    "run_sweep",
    "run_table",
    "section33",
    "simulate",
    "source_stats",
    "stalls",
    "trace_source_help",
    "trace_stats",
    "verify_machines",
]


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TableRun:
    """A finished table regeneration: the table, its stats, the paper data."""

    table: ResultTable
    stats: EngineStats
    reference: Optional[ResultTable] = None
    manifest: Optional[RunManifest] = None

    def comparison(self) -> List[Tuple[str, str, float, float]]:
        """(row, column, measured, paper) pairs, empty without a reference."""
        if self.reference is None:
            return []
        return compare_tables(self.table, self.reference)

    def render_report(self, *, compare: bool = False) -> str:
        """The full textual report: table, run footer, optional paper diff."""
        lines = [self.table.render(), self.stats.footer()]
        if compare and self.reference is not None:
            lines += ["", self.reference.render()]
            pairs = self.comparison()
            if pairs:
                errors = [relative_error(m, r) for _, _, m, r in pairs]
                mean_abs = sum(abs(e) for e in errors) / len(errors)
                lines.append(
                    f"[{len(pairs)} comparable cells; "
                    f"mean |relative deviation| = {mean_abs:.1%}]"
                )
        return "\n".join(lines)


def list_tables() -> Tuple[str, ...]:
    """The numbered table ids (``table1`` ... ``table10``), in order:
    what ``repro tables all`` runs.  :func:`run_table` also accepts the
    appendix and extension-study plans (every ``PLAN_BUILDERS`` id)."""
    return tuple(sorted(
        (tid for tid in PLAN_BUILDERS if tid.startswith("table")),
        key=lambda tid: int(tid[5:]),
    ))


#: Plan id -> the paper's reported table, for ``compare=True``.
_PAPER_REFERENCES = {**PAPER_TABLES, "section33": PAPER_SECTION33_TABLE}


def run_table(
    table_id: str,
    *,
    compare: bool = False,
    workers: Optional[int] = None,
    cache: bool = True,
    sizes: Sizes = None,
    observe: bool = False,
    progress: Optional[ProgressCallback] = None,
    **plan_overrides,
) -> TableRun:
    """Regenerate one of the paper's tables, or an extension study.

    Args:
        table_id: a ``PLAN_BUILDERS`` id: ``"table1"`` ...
            ``"table10"``, ``"section33"``, ``"per-loop"`` or an
            extension study (``"ablations"``, ``"unrolling"`` ...).
        compare: attach the paper's reported table for cell-by-cell diffs.
        workers: process fan-out width (default ``os.cpu_count()``).
        cache: consult/feed the persistent store under ``REPRO_CACHE_DIR``.
        sizes: loop-number -> problem-size overrides (tests use this).
        observe: record a span trace and write a durable run manifest
            under the cache root; returned as ``run.manifest``.
        progress: optional completion callback; invoked in this
            process with one :class:`~repro.harness.progress.
            ProgressEvent` per finished sweep group (one per trace
            source), in completion order (the CLI renders it as the
            ``tables --progress`` ticker).
        plan_overrides: table-specific sweep parameters (``stations``,
            ``ruu_sizes``, ``units``).

    Returns:
        A :class:`TableRun`; ``run.table`` is bit-identical for any
        ``workers`` value and any cache state.
    """
    plan = build_plan(table_id, sizes, **plan_overrides)
    store = DiskCache() if cache else None
    outcome = run_plan(
        plan,
        workers=workers,
        cache=store,
        observe=observe,
        progress=progress,
    )
    reference = _PAPER_REFERENCES.get(table_id) if compare else None
    return TableRun(
        table=outcome.table,
        stats=outcome.stats,
        reference=reference,
        manifest=outcome.manifest,
    )


def section33(sizes: Sizes = None) -> Dict[str, float]:
    """The Section 3.3 quote: single-issue RUU rates per loop class.

    The rows of ``run_table("section33", sizes=sizes, workers=1,
    cache=False)``.
    """
    run = run_table("section33", sizes=sizes, workers=1, cache=False)
    return {row: values["M11BR5"] for row, values in run.table.rows}


def paper_section33() -> Dict[str, float]:
    """The paper's reported Section 3.3 numbers."""
    return dict(PAPER_SECTION33)


# ----------------------------------------------------------------------
# Run manifests (observability)
# ----------------------------------------------------------------------

def list_runs(limit: Optional[int] = None) -> List[RunManifest]:
    """Manifests of past ``observe=True`` runs, newest first.

    Reads ``<cache root>/manifests``; corrupt files are skipped.
    """
    return list_manifests(default_cache_dir(), limit=limit)


def find_run(run_id: str) -> Optional[RunManifest]:
    """Look one run up by id (exact match or unique prefix)."""
    return find_manifest(default_cache_dir(), run_id)


# ----------------------------------------------------------------------
# Single-trace operations: one trace-source spec each
# ----------------------------------------------------------------------

def parse_trace_spec(spec: str) -> ParsedTraceSpec:
    """Validate and normalise a trace-source spec string.

    The trace-side twin of :func:`parse_spec`: returns the
    :class:`~repro.trace.sources.ParsedTraceSpec` the registry itself
    uses, after checking the head is a registered source; unknown heads
    raise :class:`UnknownTraceSourceError`.  (Parameter problems surface
    when the trace is actually built -- building can be expensive, so
    this check is head-only.)
    """
    from .trace.sources import _SOURCES

    parsed = _parse_trace_spec_string(spec)
    if parsed.head not in _SOURCES:
        raise UnknownTraceSourceError(spec)
    return parsed


def resolve_trace(spec: str) -> Trace:
    """Resolve a trace-source spec (``kernel:5``, ``branchy:n=256``,
    ``file:trace.jsonl`` ...) to its :class:`~repro.trace.Trace`.

    Goes through :func:`repro.harness.engine.resolve_trace` without a
    DiskCache: the process's one trace memo serves repeats (``file:``
    archives are re-read every time), so every single-trace operation
    below and a table replaying the same spec share one trace object.
    Every rejected spec raises :class:`UnknownTraceSourceError`;
    malformed ``file:`` archives raise :class:`TraceImportError` with a
    ``path:line`` diagnostic.
    """
    return _resolve_trace(spec)[0]


def simulate(
    source: str,
    machine: str = "cray",
    *,
    config: str = "M11BR5",
) -> SimulationResult:
    """Time one trace source on one machine organisation.

    ``simulate("kernel:5", "ruu:2:50")`` times Livermore loop 5;
    ``"branchy:n=256"`` or ``"file:trace.jsonl"`` replay a synthetic
    family or a captured archive the same way.  *machine* is a registry
    spec string (see :func:`list_machines`); unknown specs raise
    :class:`UnknownSpecError`.
    """
    simulator = build_simulator(machine)
    return simulator.simulate(resolve_trace(source), config_by_name(config))


def limits(
    source: str,
    *,
    config: str = "M11BR5",
    serial: bool = False,
) -> LoopLimits:
    """Pseudo-dataflow / resource / actual limits of one trace source."""
    return compute_limits(
        resolve_trace(source), config_by_name(config), serial=serial
    )


def stalls(source: str, *, config: str = "M11BR5"):
    """Stall attribution for one trace source on the CRAY-like machine."""
    return stall_breakdown(resolve_trace(source), config_by_name(config))


def trace_stats(source: str) -> TraceStats:
    """Dynamic instruction-mix statistics of one trace source."""
    return _trace_stats(resolve_trace(source))


def capture(source: str, out: str) -> int:
    """Save one trace source's trace as a JSONL archive; entry count.

    Kernel traces are verified against their NumPy reference on
    capture; the written file round-trips byte-stably through
    ``file:<out>``.
    """
    trace = resolve_trace(source)
    export_trace(trace, out)
    return len(trace)


def disassemble(source: str) -> str:
    """The assembly listing of a ``kernel:`` spec.

    Other trace sources have no program; they raise
    :class:`UnknownTraceSourceError`.
    """
    return kernel_instance(source).program.disassemble()


def source_stats(spec: str) -> IRStats:
    """Dependence-distance and FU-demand summary of one source's trace.

    Computed from the compiled-trace IR (see
    :func:`repro.trace.stats.ir_statistics`).
    """
    return ir_statistics(resolve_trace(spec))


def list_trace_sources() -> Tuple[TraceSource, ...]:
    """Every registered trace source, sorted by name."""
    return _list_sources()


def trace_source_help() -> str:
    """One-line grammar of accepted trace-source specification strings."""
    return _available_sources()


# ----------------------------------------------------------------------
# Design-space exploration
# ----------------------------------------------------------------------

def explore(
    space: str,
    sources: Sequence[str],
    *,
    config: str = "M11BR5",
    budget: Optional[int] = None,
    audit: int = 16,
    seed: int = 0,
    slack: float = 0.15,
    band_per_segment: int = 4,
    workers: Optional[int] = None,
    cache: bool = True,
    observe: bool = False,
    exhaustive: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> ExploreRun:
    """Screen a design space analytically, then simulate only its frontier.

    *space* is a declarative grid spec (``family=ruu;width=1..8;...``,
    see :mod:`repro.explore.space`); *sources* are scalar trace specs.
    The analytic model scores every candidate in one vectorised pass,
    the (cost, rate) Pareto frontier plus a bounded verification band
    and a seeded audit sample go through exact simulation, and the
    returned :class:`ExploreRun` reports predicted-vs-simulated error.
    With ``exhaustive=True`` every candidate is simulated as well and
    frontier recall is measured (small spaces only).
    """
    store = DiskCache() if cache else None
    return _explore(
        space,
        sources,
        config=config,
        budget=budget,
        audit=audit,
        seed=seed,
        slack=slack,
        band_per_segment=band_per_segment,
        workers=workers,
        cache=store,
        observe=observe,
        exhaustive=exhaustive,
        progress=progress,
    )


# ----------------------------------------------------------------------
# Differential verification
# ----------------------------------------------------------------------

def verify_machines(
    seeds: int = 50,
    *,
    machines: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    shrink: bool = True,
    dump_dir: Optional[str] = None,
    first_seed: int = 0,
    check_telemetry: bool = False,
    source: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> VerifyReport:
    """Fuzz-verify machine models against each other and the limits.

    Generates *seeds* deterministic synthetic traces, replays each
    through every spec in *machines* (default: the full oracle set),
    and runs both verification layers -- the per-cycle invariant
    checker and the cross-machine ordering/bound oracle.  Failing
    traces are delta-debugged down to minimal reproducers, written as
    JSON lines under *dump_dir* when given (replayable with
    ``simulate("file:<path>", ...)``).

    Args:
        seeds: number of fuzzed traces (seeds ``first_seed ..
            first_seed + seeds - 1``).
        machines: registry spec strings; unknown specs raise
            :class:`UnknownSpecError` up front.
        configs: machine-variant names (default: all four paper
            variants); seeds rotate through them.
        trace_length: override the fuzzed trace length only (full
            trace-shape control is :attr:`VerifyOptions.fuzz`).
        source: seeded trace-source spec to draw the campaign's traces
            from instead of the default fuzzer (``"branchy"``,
            ``"fuzz:pointer"``, ``"synthetic:deep"`` ...); the runner
            appends ``:seed=<seed>`` per iteration.
        shrink: minimise failing traces before reporting.
        dump_dir: directory for reproducer dumps.
        first_seed: base seed, letting shards cover disjoint ranges.
        check_telemetry: additionally require each fast-path machine's
            aggregate telemetry record to be bit-identical to the
            event-derived reduction (``repro verify --telemetry``).
        log: optional progress sink (the CLI passes ``print``).
    """
    shape = FuzzSpec() if trace_length is None else FuzzSpec(length=trace_length)
    options = VerifyOptions(
        seeds=seeds,
        machines=tuple(machines) if machines else DEFAULT_ORACLE_MACHINES,
        configs=tuple(
            config_by_name(name) for name in configs
        ) if configs else VerifyOptions().configs,
        fuzz=shape,
        shrink=shrink,
        dump_dir=Path(dump_dir) if dump_dir is not None else None,
        first_seed=first_seed,
        check_telemetry=check_telemetry,
        source=source,
    )
    return run_verification(options, log=log)


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------

def bench_options(
    *,
    quick: bool = False,
    seeds: Optional[int] = None,
    trace_length: Optional[int] = None,
    rounds: Optional[int] = None,
    machines: Optional[Sequence[str]] = None,
) -> BenchOptions:
    """Suite options: the quick/full preset plus explicit overrides."""
    return _bench_options_from(
        quick=quick,
        seeds=seeds,
        trace_length=trace_length,
        rounds=rounds,
        machines=tuple(machines) if machines is not None else None,
    )


def run_bench(
    options: Optional[BenchOptions] = None,
    *,
    name: str = "fastpath",
    log: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the seeded micro-benchmark suite (see :mod:`repro.bench`).

    Measures fast-path vs reference replay throughput per machine and
    Table 7's RUU sweep vs per-spec replay throughput; returns a
    :class:`~repro.bench.BenchReport` (``report.write(path)`` persists
    it as ``repro-bench/v1`` JSON).  Table, cache and explorer speed
    are measured end to end by ``benchmarks/e2e``.
    """
    return _run_bench_suite(options, name=name, log=log)


def load_bench_report(path: str) -> BenchReport:
    """Read and schema-validate a ``repro-bench/v1`` report file."""
    return _load_bench_report(path)


def compare_bench(
    current: BenchReport,
    baseline: BenchReport,
    *,
    threshold: float = 0.25,
) -> Comparison:
    """Flag benchmarks that regressed beyond the noise *threshold*."""
    return _compare_reports(current, baseline, threshold=threshold)


# ----------------------------------------------------------------------
# Machine specs and sweeps
# ----------------------------------------------------------------------

def parse_spec(spec: str) -> ParsedSpec:
    """Validate and normalise a machine spec string.

    Returns the :class:`~repro.core.registry.ParsedSpec` (lower-cased
    head plus parameter tuple) the registry itself uses, after checking
    the spec actually builds; *every* rejected spec -- unknown head or
    malformed parameters -- raises :class:`UnknownSpecError`.  The CLI's
    spec-taking subcommands (``simulate``, ``verify``, ``bench``,
    ``sweep``) all validate through here, so they fail fast with the
    same message before any expensive work starts.
    """
    parsed = _parse_spec_string(spec)
    build_simulator(spec)
    return parsed


@dataclass(frozen=True)
class MachineInfo:
    """Everything the registry knows about one machine spec."""

    #: The normalised spec string (lower-cased, whitespace-stripped).
    spec: str
    head: str
    params: Tuple[str, ...]
    #: The simulator class the spec builds.
    machine: str
    #: Compiled fast-path family (``"scoreboard"``, ``"ooo"``, ...) or
    #: ``None`` for machines that always run their reference loop.
    family: Optional[str]
    #: Whether a compiled fast loop can ever serve this machine.
    fast_path: bool


def machine_info(spec: str) -> MachineInfo:
    """Describe a machine spec: class, fast-path family, normalised form.

    Raises :class:`UnknownSpecError` for any rejected spec.
    """
    parsed = _parse_spec_string(spec)
    simulator = build_simulator(spec)
    family = fastpath.family_of(simulator)
    return MachineInfo(
        spec=":".join((parsed.head,) + parsed.params),
        head=parsed.head,
        params=parsed.params,
        machine=type(simulator).__name__,
        family=family,
        fast_path=family is not None,
    )


@dataclass(frozen=True)
class SweepRun:
    """One finished :func:`run_sweep`: per-spec aggregate rates.

    ``rates[spec]`` is the harmonic mean of the spec's per-source issue
    rates (instructions per cycle) in source order, the paper's
    aggregate.  ``stats`` is the engine run's :class:`EngineStats`: wall
    time, groups, and -- in ``stats.metrics["counters"]`` -- the
    ``fastpath.*`` deltas attributing the replays to the loop that
    served them.
    """

    specs: Tuple[str, ...]
    config: str
    sources: Tuple[str, ...]
    rates: Mapping[str, float]
    stats: EngineStats

    def render(self) -> str:
        """A small fixed-width report: one line per spec."""
        lines = [
            f"sweep: {len(self.specs)} machines x "
            f"{len(self.sources)} traces on {self.config}"
        ]
        for spec in self.specs:
            lines.append(f"  {spec:<16} rate {self.rates[spec]:.3f}")
        return "\n".join(lines)


def run_sweep(
    specs: Sequence[str],
    sources: Sequence[str],
    *,
    config: str = "M11BR5",
) -> SweepRun:
    """Replay a set of trace sources through a set of machine specs.

    The sweep-shaped entry point: the explorer's exact-simulation plan
    (:func:`repro.explore.exact.simulate_specs`, one rate cell per
    (spec, source)) run in-process and without a DiskCache.  The engine
    evaluates each source as one sweep group: its trace is lowered once
    and replayed through *every* spec in one
    :func:`repro.core.fastpath.simulate_sweep` call.  Machines without a
    compiled loop -- and every machine when the fast path is disabled --
    run their reference loops; rates are bit-identical to each
    machine's own ``simulate`` either way.

    Args:
        specs: registry spec strings; every spec is validated up front
            and an :class:`UnknownSpecError` names the first bad one.
        sources: trace-source spec strings (``"kernel:5"``,
            ``"branchy:n=256"``, ``"file:trace.jsonl"`` ...), resolved
            like :func:`resolve_trace`.
        config: machine-variant name (``M11BR5`` ...).

    An empty *specs* or *sources* raises :class:`ValueError` naming it.
    """
    spec_list = tuple(specs)
    source_list = tuple(sources)
    if not spec_list:
        raise ValueError("run_sweep: specs is empty; name at least one machine")
    if not source_list:
        raise ValueError("run_sweep: sources is empty; name at least one trace")
    for spec in spec_list:
        parse_spec(spec)
    rates, run = simulate_specs(spec_list, source_list, config=config, workers=1)
    return SweepRun(
        specs=spec_list,
        config=config,
        sources=source_list,
        rates=rates,
        stats=run.stats,
    )


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------

def list_machines() -> Tuple[str, ...]:
    """Every accepted machine spec: fixed names plus templates."""
    return list_specs()


def machine_spec_help() -> str:
    """One-line grammar of accepted machine specification strings."""
    return available_specs()
