"""The ``repro verify`` driver: fuzz, replay, check, shrink, dump.

For each seed the runner generates a trace (:mod:`repro.verify.fuzz`),
rotates through the requested machine variants, and runs both check
layers: the per-cycle invariant checker on every machine and the
cross-machine oracle over the whole set.  Each machine replays the
seed's trace once, observed; the invariant checks and the oracle's
fastpath dual read that one replay.  On a failure it re-runs the
single offending check inside a delta-debugging shrink loop
(:mod:`repro.verify.shrink`) and dumps the minimal reproducing trace as
JSON-lines (replayable with ``repro simulate --source file:<path>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from ..core.config import STANDARD_CONFIGS, MachineConfig
from ..trace import Trace, write_trace
from .fuzz import FuzzSpec, fuzz_trace
from .invariants import (
    MachineProfile,
    check_invariants,
    observe,
    profile_for_spec,
)
from .oracle import (
    DEFAULT_EDGES,
    DEFAULT_ORACLE_MACHINES,
    ORACLE_CHECKS,
    run_oracle,
)
from .shrink import shrink_trace

#: Stop collecting (and shrinking) after this many distinct failures.
MAX_FAILURES = 5


@dataclass(frozen=True)
class VerifyOptions:
    """One verification campaign.

    Attributes:
        seeds: how many fuzzed traces to generate (seeds ``0..seeds-1``,
            offset by ``first_seed``).
        machines: registry specs to verify.
        configs: machine variants; seeds rotate through them.
        fuzz: trace-shape knobs.
        shrink: minimise failing traces before reporting.
        dump_dir: where shrunk reproducer traces are written
            (``None`` disables dumping).
        first_seed: base seed (lets CI shards cover disjoint ranges).
        check_telemetry: additionally compare each fast-path machine's
            aggregate telemetry record against the event-derived
            reduction (the nightly telemetry-equality oracle).
        source: optional trace-source spec (:mod:`repro.trace.sources`)
            the campaign draws its traces from instead of the default
            fuzzer -- e.g. ``"branchy"`` or ``"fuzz:pointer:len=96"``.
            For a seeded family the runner appends ``:seed=<seed>``
            per iteration; a fixed source (``kernel:5``,
            ``file:t.jsonl``) replays the same trace every iteration
            while the configs rotate, so ``--seeds 4`` covers all four
            variants.  ``None`` keeps the legacy ``fuzz`` knobs.
    """

    seeds: int = 50
    machines: Tuple[str, ...] = DEFAULT_ORACLE_MACHINES
    configs: Tuple[MachineConfig, ...] = STANDARD_CONFIGS
    fuzz: FuzzSpec = field(default_factory=FuzzSpec)
    shrink: bool = True
    dump_dir: Optional[Path] = None
    first_seed: int = 0
    check_telemetry: bool = False
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("need at least one seed")
        if not self.machines:
            raise ValueError("need at least one machine spec")
        if not self.configs:
            raise ValueError("need at least one machine configuration")
        for spec in self.machines:
            profile_for_spec(spec)  # fail fast on unknown specs
        if self.source is not None:
            from ..trace.sources import (
                MIXED_MACHINES,
                UnknownTraceSourceError,
                parse_trace_spec,
                _SOURCES,
            )

            parsed = parse_trace_spec(self.source)
            registered = _SOURCES.get(parsed.head)
            if registered is None:
                raise UnknownTraceSourceError(self.source)
            if parsed.head == "mixed" and any(
                spec not in MIXED_MACHINES for spec in self.machines
            ):
                raise ValueError(
                    "mixed (vector) traces replay only on vector-capable "
                    f"machines; restrict --machines to {MIXED_MACHINES}"
                )


@dataclass(frozen=True)
class VerifyFailure:
    """One verified-and-minimised failure."""

    seed: int
    check: str
    machine: str
    config: str
    message: str
    trace: Trace
    repro_path: Optional[Path] = None

    def __str__(self) -> str:
        dumped = f" (repro: {self.repro_path})" if self.repro_path else ""
        return (
            f"seed {self.seed}: [{self.check}] {self.machine} "
            f"({self.config}), {len(self.trace)}-instruction repro: "
            f"{self.message}{dumped}"
        )


@dataclass
class VerifyReport:
    """Outcome of one verification campaign."""

    options: VerifyOptions
    seeds_run: int = 0
    checks_run: int = 0
    failures: List[VerifyFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


Logger = Callable[[str], None]


def _failure_signature(violation) -> Tuple[str, str]:
    return (violation.check, violation.machine)


def _first_violation(
    trace: Trace,
    config: MachineConfig,
    machines: Sequence[str],
    profiles: Mapping[str, MachineProfile],
    *,
    check_telemetry: bool = False,
):
    """All-layer check pass; returns (violation, checks_run) with the
    first violation found (or None).

    Each machine replays the trace once, observed
    (:func:`~repro.verify.invariants.observe`); that one replay feeds
    its invariant checks, and the oracle's fastpath dual and telemetry
    check.  The replays live only as long as this pass.  *profiles*
    holds each machine's event profile, resolved once per campaign.
    The invariant checks, the oracle's limit calculators and every
    fast-path machine across all specs share one lowering per seed: the
    compile cache holds it for as long as the trace lives.
    """
    checks = 0
    observed = {}
    for spec in machines:
        checks += 1
        profile = profiles[spec]
        replay = observe(trace, spec, config, profile=profile)
        violations = check_invariants(
            trace, spec, config, profile=profile, replay=replay
        )
        if violations:
            return violations[0], checks
        # Past the invariant checks only the telemetry oracle reads the
        # events themselves (the dual reads the replay's schedule), so
        # release them unless it runs.
        observed[spec] = (
            replay if check_telemetry else replace(replay, collector=None)
        )
    checks += 1
    oracle = run_oracle(
        trace, config, machines, DEFAULT_EDGES,
        check_telemetry=check_telemetry, observed=observed,
    )
    if oracle.violations:
        return oracle.violations[0], checks
    return None, checks


def _still_fails_same_way(
    signature: Tuple[str, str],
    config: MachineConfig,
    machines: Sequence[str],
    profiles: Mapping[str, MachineProfile],
    *,
    check_telemetry: bool = False,
) -> Callable[[Trace], bool]:
    check_id, machine = signature

    def predicate(candidate: Trace) -> bool:
        try:
            if check_id in ORACLE_CHECKS:
                violations = run_oracle(
                    candidate, config, machines, DEFAULT_EDGES,
                    check_telemetry=check_telemetry,
                ).violations
            else:
                violations = check_invariants(
                    candidate, machine, config, profile=profiles[machine]
                )
        except Exception:
            # A candidate that crashes a model is a different bug; keep
            # the shrink anchored to the original failure.
            return False
        return any(_failure_signature(v) == signature for v in violations)

    return predicate


def _seed_trace(options: VerifyOptions, seed: int) -> Trace:
    """The trace for one campaign seed: registry family or legacy fuzz.

    Seeded families get ``:seed=<seed>`` appended and are captured
    fresh; fixed sources (``kernel:...``, ``file:...``) resolve through
    the engine's trace memo (:func:`repro.harness.engine.resolve_trace`),
    so every iteration replays one trace object and its one compilation
    -- only the config rotation varies.  ``file:`` archives skip the
    memo and are re-read each iteration (the file can change).
    """
    if options.source is None:
        return fuzz_trace(seed, options.fuzz)
    from ..harness.engine import resolve_trace
    from ..trace.sources import (
        MIXED_MACHINES,
        _SOURCES,
        parse_trace_spec,
        trace_source,
    )

    if _SOURCES[parse_trace_spec(options.source).head].seeded:
        trace = trace_source(f"{options.source}:seed={seed}")
    else:
        trace, _ = resolve_trace(options.source)
    # A file: archive can carry vector operations the head-level guard
    # in VerifyOptions cannot see; apply the same machine restriction
    # here, on the resolved trace.
    if any(entry.instruction.is_vector for entry in trace.entries) and any(
        spec not in MIXED_MACHINES for spec in options.machines
    ):
        raise ValueError(
            f"trace {trace.name!r} contains vector operations, which "
            "replay only on vector-capable machines; restrict "
            f"--machines to {MIXED_MACHINES}"
        )
    return trace


def run_verification(
    options: Optional[VerifyOptions] = None,
    *,
    log: Optional[Logger] = None,
) -> VerifyReport:
    """Run a verification campaign and return its report.

    Stops early once :data:`MAX_FAILURES` distinct failures have been
    collected (each costs a shrink loop); duplicate (check, machine)
    signatures from later seeds are skipped so one systematic bug does
    not flood the report.
    """
    options = options or VerifyOptions()
    report = VerifyReport(options=options)
    seen_signatures = set()
    profiles = {spec: profile_for_spec(spec) for spec in options.machines}

    say = log or (lambda message: None)

    for index in range(options.seeds):
        seed = options.first_seed + index
        config = options.configs[index % len(options.configs)]
        trace = _seed_trace(options, seed)
        violation, checks = _first_violation(
            trace, config, options.machines, profiles,
            check_telemetry=options.check_telemetry,
        )
        report.seeds_run += 1
        report.checks_run += checks
        if violation is None:
            continue

        signature = _failure_signature(violation)
        say(
            f"seed {seed} ({config.name}): FAILED [{violation.check}] "
            f"{violation.machine}: {violation.message}"
        )
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)

        repro = trace
        if options.shrink:
            predicate = _still_fails_same_way(
                signature, config, options.machines, profiles,
                check_telemetry=options.check_telemetry,
            )
            repro = shrink_trace(
                trace, predicate, name=f"{trace.name}-shrunk"
            )
            say(
                f"  shrunk {len(trace)} -> {len(repro)} instructions"
            )

        repro_path: Optional[Path] = None
        if options.dump_dir is not None:
            options.dump_dir.mkdir(parents=True, exist_ok=True)
            repro_path = options.dump_dir / (
                f"repro-seed{seed}-{violation.check}.jsonl"
            )
            write_trace(repro, repro_path)
            say(f"  reproducer written to {repro_path}")

        # Re-derive the message on the shrunk trace when possible, so the
        # report points at the minimal witness.
        message = violation.message
        small_violation, _ = _first_violation(
            repro, config, options.machines, profiles,
            check_telemetry=options.check_telemetry,
        )
        if small_violation is not None and (
            _failure_signature(small_violation) == signature
        ):
            message = small_violation.message

        report.failures.append(
            VerifyFailure(
                seed=seed,
                check=violation.check,
                machine=violation.machine,
                config=config.name,
                message=message,
                trace=repro,
                repro_path=repro_path,
            )
        )
        if len(report.failures) >= MAX_FAILURES:
            say(f"stopping after {MAX_FAILURES} distinct failures")
            break

    return report


def smoke_options(seeds: int = 25) -> VerifyOptions:
    """A small, fast campaign (used by tier-1 tests and CI smoke)."""
    return replace(
        VerifyOptions(),
        seeds=seeds,
        fuzz=FuzzSpec(length=32),
    )
