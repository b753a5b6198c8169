"""Command-line interface: ``python -m repro <subcommand>``.

Every subcommand is a thin wrapper over :mod:`repro.api` -- the CLI
parses arguments and prints, the facade does the work:

* ``tables``   -- regenerate any of the paper's tables, the Section 3.3
  quote (``section33``) or the per-loop appendix (``per-loop``) in
  parallel with a persistent result store (``--workers``, ``--no-cache``, ``--compare``;
  records a run manifest unless ``--no-observe``; ``--progress``
  streams per-group completions to stderr, as a human ticker or
  ``--progress-format jsonl``);
* ``simulate`` -- time one trace on one machine organisation;
* ``disasm``   -- print a kernel's assembly listing;
* ``stats``    -- with a trace: dynamic instruction-mix statistics;
  without: the run breakdown of past observed runs (timings, cache hit
  rate, worker utilization) from the stored manifests; ``--format
  openmetrics`` dumps a run's metric snapshot as an OpenMetrics
  exposition for any Prometheus-style scraper;
* ``trace-export`` -- export a run's span trace as Chrome ``trace_event``
  JSON (``chrome://tracing`` / Perfetto; ``--format perfetto`` adds
  named per-worker tracks) or the raw span payload;
* ``limits``   -- pseudo-dataflow / resource / serial limits;
* ``stalls``   -- stall attribution on an issue-blocking machine;
* ``capture``  -- save a (kernel-verified) dynamic trace as JSON lines;
* ``verify``   -- differential verification: fuzz traces, replay them
  through every machine, check per-cycle invariants and cross-machine
  ordering/bound claims, shrink any failure to a minimal reproducer;
* ``bench``    -- seeded micro-benchmarks (fast-path vs reference replay
  throughput, batch sweep vs per-spec replay); writes a
  ``repro-bench/v1`` JSON report and, with ``--compare BASELINE``,
  flags regressions beyond a noise threshold.

The six single-trace subcommands (``simulate``, ``limits``, ``stats``,
``stalls``, ``capture``, ``disasm``) name their trace the same way:
``--kernel N`` with ``--n``/``--unroll``/``--no-schedule``/``--vector``/
``--explicit-addressing``, which is the spec ``kernel:N:n=...``, or one
``--source SPEC``.

Subcommands that render a verdict (``verify``, ``stats``, ``bench``)
decide their exit code *before* printing, so a downstream ``| head``
closing stdout (``BrokenPipeError``) cannot turn a failure into exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import api
from .harness.plans import PLAN_BUILDERS
from .kernels import ALL_LOOPS
from .obs.metrics import MetricsRegistry
from .obs.tracing import spans_to_chrome, spans_to_perfetto
from .trace import format_stats


def _add_trace_arguments(
    parser: argparse.ArgumentParser, *, required: bool = True
) -> None:
    """The single-trace argument group: ``--kernel N`` plus its
    modifiers, or one ``--source SPEC``; :func:`_trace_spec` turns it
    into the spec the api takes."""
    picked = parser.add_mutually_exclusive_group(required=required)
    picked.add_argument(
        "--kernel",
        type=int,
        choices=ALL_LOOPS,
        help="Livermore loop number (the spec kernel:<N>)",
    )
    picked.add_argument(
        "--source",
        metavar="SPEC",
        help=(
            "trace-source spec instead of --kernel (kernel:5:n=64, "
            "branchy:n=256, fuzz:seed=7, file:trace.jsonl ...; "
            "see `repro sources`)"
        ),
    )
    parser.add_argument("--n", type=int, help="problem size")
    parser.add_argument("--unroll", type=int, help="unroll factor (default 1)")
    parser.add_argument(
        "--no-schedule",
        action="store_true",
        help="keep the naive source-order encoding",
    )
    parser.add_argument(
        "--vector",
        action="store_true",
        help="use the vectorised encoding (loops 1, 7, 12)",
    )
    parser.add_argument(
        "--explicit-addressing",
        action="store_true",
        help="expand folded displacements CFT-style (calibration variant)",
    )


def _trace_spec(args) -> Optional[str]:
    """The trace-source spec of the single-trace argument group.

    ``--kernel 12 --n 16 --vector`` is ``kernel:12:n=16:vector=on``;
    ``--source`` is taken as given, and a kernel modifier next to it is
    rejected as a bad spec (exit 2).  None when neither flag was given.
    """
    modifiers = {
        "--n": None if args.n is None else f"n={args.n}",
        "--unroll": None if args.unroll is None else f"unroll={args.unroll}",
        "--no-schedule": "schedule=off" if args.no_schedule else None,
        "--vector": "vector=on" if args.vector else None,
        "--explicit-addressing": (
            "addressing=explicit" if args.explicit_addressing else None
        ),
    }
    given = {flag: token for flag, token in modifiers.items() if token}
    if args.source is not None:
        if given:
            raise api.UnknownTraceSourceError(
                args.source,
                reason=f"{', '.join(given)} modify --kernel only; write "
                f"them into the spec (kernel:12:n=64:vector=on)",
            )
        return args.source
    if args.kernel is None:
        return None
    return ":".join([f"kernel:{args.kernel}", *given.values()])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Pleszkun & Sohi (1988), 'The Performance "
            "Potential of Multiple Functional Unit Processors'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser(
        "tables", help="regenerate the paper's tables and the studies"
    )
    tables.add_argument(
        "table",
        choices=list(PLAN_BUILDERS) + ["all"],
        help="a plan id, or all for the numbered tables",
    )
    tables.add_argument("--compare", action="store_true")
    tables.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes (default: all CPUs)",
    )
    tables.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent result store under $REPRO_CACHE_DIR",
    )
    tables.add_argument(
        "--no-observe",
        action="store_true",
        help="skip recording the run trace and manifest",
    )
    tables.add_argument(
        "--progress",
        action="store_true",
        help="stream per-group completions to stderr while the run is live",
    )
    tables.add_argument(
        "--progress-format",
        choices=("human", "jsonl"),
        default="human",
        help=(
            "progress rendering: a live human ticker (default) or one "
            "JSON object per completed group; implies --progress"
        ),
    )

    sweep = sub.add_parser(
        "sweep",
        help="replay kernels through many machines in one batched pass",
    )
    sweep.add_argument(
        "--machines",
        nargs="+",
        required=True,
        metavar="SPEC",
        help=f"machine specs to sweep ({api.machine_spec_help()})",
    )
    sweep.add_argument(
        "--kernels",
        nargs="+",
        type=int,
        default=None,
        choices=ALL_LOOPS,
        metavar="LOOP",
        help="Livermore loop numbers (default: all)",
    )
    sweep.add_argument(
        "--sources",
        nargs="+",
        default=None,
        metavar="SPEC",
        help=(
            "trace-source specs to sweep (combinable with --kernels; "
            "see `repro sources`)"
        ),
    )
    sweep.add_argument("--config", default="M11BR5")

    simulate = sub.add_parser(
        "simulate", help="time one kernel (or trace source) on one machine"
    )
    _add_trace_arguments(simulate)
    simulate.add_argument(
        "--machine",
        default="cray",
        help=f"machine spec ({api.machine_spec_help()})",
    )
    simulate.add_argument("--config", default="M11BR5")

    sources = sub.add_parser(
        "sources",
        help="list trace sources, or describe one spec (--spec)",
    )
    sources.add_argument(
        "--spec",
        default=None,
        metavar="SPEC",
        help=(
            "resolve one trace-source spec and print its statistics "
            "(length, mix, dependence distance, FU demand)"
        ),
    )

    disasm = sub.add_parser("disasm", help="print a kernel's assembly")
    _add_trace_arguments(disasm)

    stats = sub.add_parser(
        "stats",
        help=(
            "instruction-mix statistics (--kernel/--source) or the run "
            "breakdown of past observed runs (neither)"
        ),
    )
    _add_trace_arguments(stats, required=False)
    stats.add_argument(
        "--machine",
        default=None,
        metavar="SPEC",
        help="describe one machine spec (class, fast-path family) and exit",
    )
    stats.add_argument(
        "--run",
        default=None,
        help="show one run by id (or unique prefix) instead of the latest",
    )
    stats.add_argument(
        "--limit",
        type=int,
        default=10,
        help="how many past runs to list (default 10)",
    )
    stats.add_argument(
        "--format",
        choices=("text", "openmetrics"),
        default="text",
        help=(
            "run-breakdown rendering: the text report (default) or the "
            "run's metric snapshot as an OpenMetrics exposition"
        ),
    )

    trace_export = sub.add_parser(
        "trace-export",
        help="export a run's span trace (Chrome trace_event or raw JSON)",
    )
    trace_export.add_argument(
        "--run",
        default=None,
        help="run id or unique prefix (default: the latest observed run)",
    )
    trace_export.add_argument(
        "--format",
        choices=("chrome", "perfetto", "json"),
        default="chrome",
        help=(
            "chrome trace_event (default), perfetto (chrome plus named "
            "per-worker tracks) or the raw span payload"
        ),
    )
    trace_export.add_argument(
        "--out",
        default="-",
        help="output path (default: stdout)",
    )

    limits = sub.add_parser("limits", help="dataflow/resource/serial limits")
    _add_trace_arguments(limits)
    limits.add_argument("--config", default="M11BR5")
    limits.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help=(
            "json emits both pure and serial limit payloads (makespans, "
            "per-unit busy spans) for scripting"
        ),
    )

    explore = sub.add_parser(
        "explore",
        help="design-space explorer: analytic screen + frontier simulation",
    )
    explore.add_argument(
        "--space",
        required=True,
        metavar="SPEC",
        help=(
            "design-space grid, e.g. "
            "'family=ruu;width=1..8;window=8..64:8;bus=nbus,1bus;fu=1,2'"
        ),
    )
    explore.add_argument(
        "--sources",
        nargs="+",
        required=True,
        metavar="SPEC",
        help="scalar trace sources to score against (branchy:seed=3 ...)",
    )
    explore.add_argument("--config", default="M11BR5")
    explore.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on exactly simulated candidates (frontier subsampled)",
    )
    explore.add_argument(
        "--audit",
        type=int,
        default=16,
        help="seeded off-frontier sample size for error reporting",
    )
    explore.add_argument("--seed", type=int, default=0,
                         help="audit-sample seed")
    explore.add_argument(
        "--slack",
        type=float,
        default=0.15,
        help="verification-band relative rate slack (default 0.15)",
    )
    explore.add_argument(
        "--exhaustive",
        action="store_true",
        help=(
            "also simulate every candidate and report frontier recall "
            "(small spaces only)"
        ),
    )
    explore.add_argument("--workers", type=int, default=None)
    explore.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the screen/result caches",
    )
    explore.add_argument(
        "--no-observe",
        action="store_true",
        help="skip writing a run manifest",
    )
    explore.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="json emits the full machine-readable run payload",
    )
    explore.add_argument(
        "--progress",
        action="store_true",
        help="stream per-source progress lines while simulating",
    )

    stalls = sub.add_parser("stalls", help="stall attribution")
    _add_trace_arguments(stalls)
    stalls.add_argument("--config", default="M11BR5")

    capture = sub.add_parser("capture", help="save a verified trace (JSONL)")
    _add_trace_arguments(capture)
    capture.add_argument("--out", required=True, help="output path")

    verify = sub.add_parser(
        "verify",
        help="differential verification: fuzz, replay, check, shrink",
    )
    verify.add_argument(
        "--seeds",
        type=int,
        default=50,
        help="how many fuzzed traces to run (default 50)",
    )
    verify.add_argument(
        "--machines",
        nargs="+",
        default=None,
        metavar="SPEC",
        help=(
            "registry specs to verify (default: the full oracle set; "
            f"{api.machine_spec_help()})"
        ),
    )
    verify.add_argument(
        "--config",
        action="append",
        default=None,
        help=(
            "machine variant to replay under; repeatable "
            "(default: all four paper variants, rotating per seed)"
        ),
    )
    verify.add_argument(
        "--trace-length",
        type=int,
        default=None,
        help="fuzzed trace length (default 48)",
    )
    verify.add_argument(
        "--first-seed",
        type=int,
        default=0,
        help="base seed (shards can cover disjoint ranges)",
    )
    verify.add_argument(
        "--dump-dir",
        default=None,
        help="write shrunk reproducer traces (JSONL) into this directory",
    )
    verify.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failing traces without delta-debugging them",
    )
    verify.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "also check every fast-path machine's aggregate telemetry "
            "record against the event-derived reduction"
        ),
    )
    verify.add_argument(
        "--source",
        default=None,
        metavar="SPEC",
        help=(
            "seeded trace-source family to draw campaign traces from "
            "(branchy, fuzz:pointer, synthetic:deep ...; default: the "
            "legacy fuzzer knobs)"
        ),
    )
    verify.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-seed progress; print only the summary",
    )

    bench = sub.add_parser(
        "bench",
        help="seeded micro-benchmarks; JSON report + baseline comparison",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="the CI smoke preset (seconds, not minutes)",
    )
    bench.add_argument(
        "--name",
        default="fastpath",
        help="report name (default 'fastpath'; names the output file)",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="report path (default BENCH_<name>.json; '-' skips writing)",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline report; exit 1 on regression",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative noise band for --compare (default 0.25)",
    )
    bench.add_argument(
        "--seeds", type=int, default=None, help="fuzzed traces per machine"
    )
    bench.add_argument(
        "--trace-length", type=int, default=None, help="instructions per trace"
    )
    bench.add_argument(
        "--rounds", type=int, default=None, help="interleaved timing rounds"
    )
    bench.add_argument(
        "--machines",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="fast-path machine specs to replay-benchmark",
    )
    bench.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-benchmark progress lines",
    )

    return parser


def _progress_callback(progress_format: str, stream=None):
    """A :class:`~repro.api.ProgressCallback` rendering to *stream*.

    ``jsonl`` writes one JSON object per completed sweep group (machine-
    readable, the seed of the serve-layer streaming API); ``human``
    writes a live ticker -- carriage-return rewrites on a TTY, plain
    lines otherwise.  Progress goes to stderr so table output on stdout
    stays pipeable.
    """
    stream = stream if stream is not None else sys.stderr

    if progress_format == "jsonl":
        def emit_jsonl(event) -> None:
            stream.write(json.dumps(event.to_payload(), sort_keys=True) + "\n")
            stream.flush()

        return emit_jsonl

    interactive = getattr(stream, "isatty", lambda: False)()

    def emit_human(event) -> None:
        line = (
            f"[{event.completed:>3}/{event.total}] {event.table_id} "
            f"{event.source:<32} {event.cells:>4} cells "
            f"{event.seconds:7.3f}s"
            + (f"  ({event.hits} cached)" if event.hits else "")
        )
        if interactive:
            stream.write("\r\x1b[2K" + line)
            if event.completed == event.total:
                stream.write("\n")
        else:
            stream.write(line + "\n")
        stream.flush()

    return emit_human


def run_tables(
    table: str,
    *,
    compare: bool = False,
    workers: Optional[int] = None,
    cache: bool = True,
    observe: bool = True,
    progress: bool = False,
    progress_format: str = "human",
) -> int:
    """The ``tables`` subcommand: print one plan's table, or every
    numbered table for ``all``."""
    callback = _progress_callback(progress_format) if progress else None
    targets = api.list_tables() if table == "all" else (table,)
    for table_id in targets:
        run = api.run_table(
            table_id,
            compare=compare,
            workers=workers,
            cache=cache,
            observe=observe,
            progress=callback,
        )
        print(run.render_report(compare=compare))
        print()
    return 0


def _format_run_line(manifest) -> str:
    hit_rate = manifest.cache_hit_rate
    hit = f"{hit_rate:.0%}" if hit_rate is not None else "n/a"
    utils = manifest.worker_utilization.values()
    util = f"{sum(utils) / len(utils):.0%}" if utils else "n/a"
    wall = manifest.timings.get("wall_seconds", 0.0)
    cells = manifest.config.get("cells", 0)
    return (
        f"  {manifest.run_id:<42} {manifest.table_id:<9} "
        f"{wall:>7.2f}s  {cells:>4} cells  hit {hit:>4}  util {util:>4}"
    )


def _render_run_detail(manifest, *, top: int = 10) -> str:
    lines = [
        f"run {manifest.run_id} ({manifest.table_id}, {manifest.created})",
        f"  git: {manifest.git_sha or 'unknown'}",
        f"  workers: {manifest.config.get('workers', '?')}, "
        f"cache: {'on' if manifest.config.get('cache_enabled') else 'off'}",
    ]
    timings = manifest.timings
    if manifest.version < 2:
        group_time = timings.get("cell_seconds", 0.0)
        longest = "max n/a in a v1 manifest"
    else:
        group_time = timings.get("group_seconds", 0.0)
        longest = f"max {timings.get('max_group_seconds', 0.0):.3f}s"
    lines.append(
        f"  wall {timings.get('wall_seconds', 0.0):.2f}s, "
        f"group time {group_time:.2f}s ({longest}), "
        f"queue wait {timings.get('queue_wait_seconds', 0.0):.3f}s"
    )
    hit_rate = manifest.cache_hit_rate
    hits = manifest.counter("cache.result.hits")
    misses = manifest.counter("cache.result.misses")
    corrupt = manifest.counter(
        "cache.result.corruptions"
    ) + manifest.counter("cache.trace.corruptions")
    rate = f"{hit_rate:.1%}" if hit_rate is not None else "n/a"
    lines.append(
        f"  result cache: {hits:.0f} hit / {misses:.0f} miss "
        f"(hit rate {rate}; {corrupt:.0f} corrupt rebuilt)"
    )
    lines.append(
        f"  compiled fast path: {manifest.counter('fastpath.fast_runs'):.0f} "
        f"fast runs, {manifest.counter('fastpath.compiles'):.0f} compiles "
        f"({manifest.counter('fastpath.cache_hits'):.0f} trace-cache hits, "
        f"{manifest.counter('fastpath.evictions'):.0f} evictions)"
    )
    route_parts = []
    for route, keys in (
        ("python", ("fast_runs", "skipped_instructions")),
        ("batch", ("fast_runs", "sweeps", "fallback_runs", "reused_runs")),
    ):
        counts = {
            key: manifest.counter(f"fastpath.{route}.{key}") for key in keys
        }
        if any(counts.values()):
            detail = ", ".join(
                f"{value:.0f} {key.replace('_', ' ')}"
                for key, value in counts.items()
                if value
            )
            route_parts.append(f"{route}: {detail}")
    if route_parts:
        lines.append("  fast-path routes: " + "; ".join(route_parts))
    utilization = manifest.worker_utilization
    if utilization:
        shares = ", ".join(
            f"{pid}: {share:.0%}" for pid, share in sorted(utilization.items())
        )
        lines.append(f"  worker utilization: {shares}")
    groups = manifest.group_timings()
    if groups:
        lines.append(f"  slowest groups (of {len(groups)}):")
        for group in groups[:top]:
            lines.append(
                f"    {group['name']:<44} {group['seconds']:>8.3f}s  "
                f"pid {group['pid']}"
            )
    return "\n".join(lines)


def run_machine_info(spec: str) -> int:
    """``stats --machine``: describe one spec through the registry."""
    info = api.machine_info(spec)  # raises UnknownSpecError -> exit 2
    print(f"spec:      {info.spec}")
    print(f"machine:   {info.machine}")
    if info.params:
        print(f"params:    {', '.join(info.params)}")
    if info.fast_path:
        print(f"fast path: yes (compiled family '{info.family}')")
    else:
        print("fast path: no (always runs its reference loop)")
    return 0


def run_sources(spec: Optional[str]) -> int:
    """The ``sources`` subcommand: the trace-source catalog or one spec."""
    if spec is None:
        print("trace sources (head[:token]... grammar; see docs/traces.md):")
        for source in api.list_trace_sources():
            seeded = "  [seeded family]" if source.seeded else ""
            print(f"  {source.name:<10} {source.description}{seeded}")
            for template in source.templates:
                print(f"             {template}")
        return 0
    stats = api.source_stats(spec)  # bad specs -> exit 2 via main()
    print(f"source {spec}")
    print(f"  trace:                {stats.name}")
    print(f"  instructions:         {stats.length}")
    print(f"  branch fraction:      {stats.branch_fraction:.1%}")
    print(f"  memory fraction:      {stats.memory_fraction:.1%}")
    if stats.vector_fraction:
        print(f"  vector fraction:      {stats.vector_fraction:.1%}")
    print(
        "  dependence distance:  "
        f"{stats.mean_dependence_distance:.2f} mean "
        f"({stats.dependent_fraction:.0%} of instructions dependent)"
    )
    print("  functional-unit demand:")
    for unit, share in sorted(
        stats.fu_demand.items(), key=lambda item: -item[1]
    ):
        print(f"    {unit:<26} {share:.1%}")
    return 0


def run_sweep_cmd(args) -> int:
    """The ``sweep`` subcommand: batched multi-machine replay."""
    for spec in args.machines:
        api.parse_spec(spec)  # raises UnknownSpecError -> exit 2
    sources = [f"kernel:{loop}" for loop in args.kernels or ()]
    sources += args.sources or []
    if not sources:
        sources = [f"kernel:{loop}" for loop in ALL_LOOPS]
    run = api.run_sweep(args.machines, sources, config=args.config)
    print(run.render())
    counters = run.stats.metrics["counters"]

    def count(key: str) -> int:
        return int(counters.get(f"fastpath.{key}", 0))

    swept = count("batch.sweeps")
    fallback = count("batch.fallback_runs")
    reused = count("batch.reused_runs")
    if swept or fallback:
        print(
            f"  [{count('fast_runs')} fast replays via "
            f"{swept} batched sweeps"
            + (f"; {reused} reused" if reused else "")
            + (f"; {fallback} per-spec fallbacks" if fallback else "")
            + f"; {run.stats.wall_seconds:.3f}s]"
        )
    return 0


def run_stats(
    run_id: Optional[str], limit: int, fmt: str = "text"
) -> int:
    """``stats`` without ``--kernel``: render the stored run manifests."""
    if fmt == "openmetrics":
        if run_id is not None:
            manifest = api.find_run(run_id)
        else:
            runs = api.list_runs(limit=1)
            manifest = runs[0] if runs else None
        if manifest is None:
            _set_pending_exit(2)
            target = f"run matching {run_id!r}" if run_id else "observed runs"
            print(f"error: no {target}", file=sys.stderr)
            return 2
        registry = MetricsRegistry.from_snapshot(manifest.metrics)
        sys.stdout.write(registry.to_openmetrics())
        return 0
    if run_id is not None:
        manifest = api.find_run(run_id)
        if manifest is None:
            _set_pending_exit(2)
            print(f"error: no run matching {run_id!r}", file=sys.stderr)
            return 2
        print(_render_run_detail(manifest))
        return 0
    manifests = api.list_runs(limit=limit)
    if not manifests:
        print(
            "no observed runs yet -- run `python -m repro tables <id>` "
            "(observation is on by default)"
        )
        return 0
    print("observed runs (newest first):")
    for manifest in manifests:
        print(_format_run_line(manifest))
    print()
    print(_render_run_detail(manifests[0]))
    return 0


def run_trace_export(run_id: Optional[str], fmt: str, out: str) -> int:
    """``trace-export``: write a run's span trace as JSON."""
    if run_id is not None:
        manifest = api.find_run(run_id)
    else:
        runs = api.list_runs(limit=1)
        manifest = runs[0] if runs else None
    if manifest is None:
        _set_pending_exit(2)
        target = f"run matching {run_id!r}" if run_id else "observed runs"
        print(f"error: no {target}", file=sys.stderr)
        return 2
    if fmt == "chrome":
        payload = spans_to_chrome(manifest.spans)
    elif fmt == "perfetto":
        payload = spans_to_perfetto(manifest.spans)
    else:
        payload = {"run_id": manifest.run_id, "spans": manifest.spans}
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out == "-":
        print(text)
    else:
        with open(out, "w") as handle:
            handle.write(text + "\n")
        print(
            f"wrote {len(manifest.spans)} spans ({fmt}) "
            f"for {manifest.run_id} to {out}",
            file=sys.stderr,
        )
    return 0


def run_verify(args) -> int:
    """The ``verify`` subcommand: fuzz-verify the machine models."""

    def report_failure(message: str) -> None:
        # The runner's log only speaks on failure events, so record the
        # failing verdict before each print: if the pipe then breaks
        # mid-campaign, main() still exits 1.
        _set_pending_exit(1)
        print(message)

    for spec in args.machines or ():
        api.parse_spec(spec)  # raises UnknownSpecError -> exit 2
    log = None if args.quiet else report_failure
    try:
        report = api.verify_machines(
            args.seeds,
            machines=args.machines,
            configs=args.config,
            trace_length=args.trace_length,
            shrink=not args.no_shrink,
            dump_dir=args.dump_dir,
            first_seed=args.first_seed,
            check_telemetry=args.telemetry,
            source=args.source,
            log=log,
        )
    except ValueError as exc:
        # Covers UnknownSpecError plus malformed seed counts/configs.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Decide the verdict before any stdout writes so a broken pipe
    # cannot swallow a failure (see main()).
    code = 0 if report.ok else 1
    _set_pending_exit(code)
    machine_count = len(report.options.machines)
    print(
        f"verify: {report.seeds_run} seeds x {machine_count} machines "
        f"({report.checks_run} checks): "
        + ("OK" if report.ok else f"{len(report.failures)} FAILURES")
    )
    for failure in report.failures:
        print(f"  {failure}")
    if not report.ok and args.dump_dir is None:
        print(
            "  (re-run with --dump-dir to save replayable reproducer "
            "traces)",
            file=sys.stderr,
        )
    return code


def run_bench(args) -> int:
    """The ``bench`` subcommand: run the suite, persist, compare."""
    log = None if args.quiet else print
    for spec in args.machines or ():
        api.parse_spec(spec)  # raises UnknownSpecError -> exit 2
    try:
        options = api.bench_options(
            quick=args.quick,
            seeds=args.seeds,
            trace_length=args.trace_length,
            rounds=args.rounds,
            machines=args.machines,
        )
    except TypeError as exc:  # pragma: no cover - argparse guards types
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Load (and validate) the baseline *before* the expensive run, so a
    # bad path or malformed file fails in milliseconds.
    baseline = None
    if args.compare is not None:
        try:
            baseline = api.load_bench_report(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            _set_pending_exit(2)
            print(f"error: bad baseline {args.compare!r}: {exc}",
                  file=sys.stderr)
            return 2

    report = api.run_bench(options, name=args.name, log=log)

    out = args.out if args.out is not None else f"BENCH_{args.name}.json"
    if out != "-":
        report.write(out)
        if log:
            log(f"wrote {len(report.results)} benchmarks to {out}")

    if baseline is None:
        return 0

    threshold = 0.25 if args.threshold is None else args.threshold
    comparison = api.compare_bench(report, baseline, threshold=threshold)
    # Verdict before printing: a broken pipe must not hide a regression.
    code = 0 if comparison.ok else 1
    _set_pending_exit(code)
    print(
        f"compare vs {args.compare} (threshold {threshold:.0%}): "
        + ("OK" if comparison.ok
           else f"{len(comparison.regressions)} REGRESSIONS")
    )
    if not comparison.environment_comparable:
        print(
            "  warning: reports were measured on different "
            "interpreters/architectures; deltas may be meaningless",
            file=sys.stderr,
        )
    for delta in comparison.deltas:
        print(f"  {delta}")
    for missing in comparison.missing:
        print(f"  {missing:<32} (in baseline only)")
    for added in comparison.added:
        print(f"  {added:<32} (new, no baseline)")
    return code


def run_explore(args) -> int:
    callback = _progress_callback("human") if args.progress else None
    run = api.explore(
        args.space,
        args.sources,
        config=args.config,
        budget=args.budget,
        audit=args.audit,
        seed=args.seed,
        slack=args.slack,
        workers=args.workers,
        cache=not args.no_cache,
        observe=not args.no_observe,
        exhaustive=args.exhaustive,
        progress=callback,
    )
    if args.format == "json":
        print(json.dumps(run.to_payload(), indent=1, sort_keys=True))
    else:
        print(run.render_report())
    return 0


#: Exit code to use if stdout breaks mid-print: subcommands record their
#: verdict here as soon as it is known, before rendering any output.
_pending_exit = 0


def _set_pending_exit(code: int) -> None:
    global _pending_exit
    _pending_exit = code


def main(argv: Optional[List[str]] = None) -> int:
    global _pending_exit
    _pending_exit = 0
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (
        api.UnknownSpecError,
        api.UnknownTraceSourceError,
        api.TraceImportError,
        api.SpaceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reader went away (e.g. ``repro stats | head``); stdout is gone,
        # so detach it before interpreter shutdown tries to flush it.
        # Return the verdict recorded before printing started -- piping
        # ``repro verify`` into ``head`` must not hide a failure.
        _detach_stdout()
        return _pending_exit


def _detach_stdout() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def _dispatch(args) -> int:
    if args.command == "tables":
        return run_tables(
            args.table,
            compare=args.compare,
            workers=args.workers,
            cache=not args.no_cache,
            observe=not args.no_observe,
            progress=args.progress or args.progress_format == "jsonl",
            progress_format=args.progress_format,
        )

    if args.command == "sweep":
        return run_sweep_cmd(args)

    if args.command == "trace-export":
        return run_trace_export(args.run, args.format, args.out)

    if args.command == "verify":
        return run_verify(args)

    if args.command == "bench":
        return run_bench(args)

    if args.command == "explore":
        return run_explore(args)

    if args.command == "sources":
        return run_sources(args.spec)

    if args.command == "stats" and args.machine is not None:
        return run_machine_info(args.machine)

    spec = _trace_spec(args)

    if args.command == "disasm":
        print(api.disassemble(spec))
        return 0

    if args.command == "simulate":
        print(api.simulate(spec, args.machine, config=args.config))
        return 0

    if args.command == "stats":
        if spec is None:
            return run_stats(args.run, args.limit, args.format)
        print(format_stats(api.trace_stats(spec)))
        return 0

    if args.command == "limits":
        pure = api.limits(spec, config=args.config)
        serial = api.limits(spec, config=args.config, serial=True)
        if args.format == "json":
            payload = {
                "pure": pure.to_payload(),
                "serial": serial.to_payload(),
            }
            print(json.dumps(payload, indent=1, sort_keys=True))
            return 0
        print(f"{pure.trace_name} on {pure.config.name}:")
        print(f"  pseudo-dataflow limit  {pure.pseudo_dataflow_rate:.3f}")
        print(f"  resource limit         {pure.resource_rate:.3f} "
              f"(bottleneck: {pure.resource.bottleneck.value})")
        print(f"  actual (binding) limit {pure.actual_rate:.3f}")
        print(f"  serial (WAW) limit     {serial.actual_rate:.3f}")
        return 0

    if args.command == "stalls":
        print(api.stalls(spec, config=args.config).render())
        return 0

    if args.command == "capture":
        count = api.capture(spec, args.out)
        print(f"wrote {count} entries to {args.out}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
