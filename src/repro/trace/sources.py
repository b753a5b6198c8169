"""Unified trace-source registry: every workload behind one spec syntax.

The paper's methodology replays *the same dynamic trace* through every
machine organisation; this module does for traces what
:mod:`repro.core.registry` does for machines -- one string grammar,
resolvable from the CLI, :mod:`repro.api`, the harness and the verifier,
covering every way the repo can produce a trace:

======================  ==============================================
spec                    trace
======================  ==============================================
``kernel:5``            Livermore loop 5 at its default size
``kernel:k2:n=50``      loop 2 at n=50 (``unroll=``, ``schedule=``,
                        ``vector=``, ``addressing=`` also accepted)
``kernel:24``           extended Livermore kernel 24 (18, 19, 21 and
                        24 take ``n=`` only; :mod:`repro.kernels.extended`)
``synthetic:stride``    a `workloads.synthetic` preset (``default``,
                        ``stride``, ``deep``, ``wide``; override with
                        ``n=``, ``body=``, ``mem=``, ``chains=``,
                        ``carried=``, ``seed=``)
``fuzz:seed=7:branchy`` a `verify.fuzz` trace: preset family plus
                        ``seed=``/``len=`` overrides
``branchy:n=256``       control-dominated integer code
                        (:mod:`repro.workloads.families`)
``pointer:chains=2``    pointer-chasing with gathers
``mixed:n=192``         mixed scalar-vector strips (vector-capable
                        machines only, see :data:`MIXED_MACHINES`)
``file:trace.jsonl``    an external JSONL trace archive
                        (:mod:`repro.trace.importer`)
======================  ==============================================

Grammar: ``head[:token]...`` where each token is either a bare preset
name (``stride``, ``branchy``) or a ``key=value`` override; tokens are
order-insensitive.  The ``file`` head is special: everything after the
first ``:`` is the path, taken verbatim (case and further colons
preserved).  :func:`parse_trace_spec` and :func:`format_trace_spec` are
inverses on normalised specs, mirroring ``core.registry.parse_spec``;
:func:`canonical_trace_spec` is the one spelling every memo and cache
key uses (``kernel:05`` and ``kernel:5`` are ``kernel:5:n=200``);
every rejected spec raises :class:`UnknownTraceSourceError` carrying
``.spec``/``.reason``/``.valid`` exactly like
:class:`~repro.core.registry.UnknownSpecError`.

Per-family statistics (:func:`repro.trace.stats.ir_statistics`) are
computed from the compiled-trace IR -- dependence distances and
functional-unit demand -- and each seeded family documents the envelope
those statistics stay inside (:data:`FAMILY_ENVELOPES`); the
calibration tests hold 200 seeds per family to it so the oracle's
partial-order edges stay sound as the generators evolve.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from .record import Trace

if TYPE_CHECKING:
    from ..kernels import KernelInstance

__all__ = [
    "FAMILY_ENVELOPES",
    "MIXED_MACHINES",
    "ParsedTraceSpec",
    "TraceSource",
    "UnknownTraceSourceError",
    "available_sources",
    "canonical_trace_spec",
    "format_trace_spec",
    "kernel_instance",
    "list_sources",
    "parse_trace_spec",
    "register_source",
    "source_names",
    "trace_source",
]


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedTraceSpec:
    """A trace-source spec split into its head and parameter tokens.

    The single parsing point shared by :func:`trace_source` and every
    spec-keyed consumer, mirroring
    :class:`repro.core.registry.ParsedSpec` for machines.
    """

    head: str
    params: Tuple[str, ...]


def parse_trace_spec(spec: str) -> ParsedTraceSpec:
    """Normalise a trace-source spec: strip, lowercase, split on ``:``.

    The ``file`` head keeps everything after the first ``:`` verbatim
    (paths are case-sensitive and may themselves contain colons), so
    ``file:Traces/App:v2.jsonl`` parses to one path parameter.
    """
    text = spec.strip()
    head, sep, rest = text.partition(":")
    head = head.strip().lower()
    if head == "file":
        rest = rest.strip()
        return ParsedTraceSpec(head=head, params=(rest,) if rest else ())
    parts = [part.strip() for part in text.lower().split(":")]
    return ParsedTraceSpec(head=parts[0], params=tuple(parts[1:]))


def format_trace_spec(parsed: ParsedTraceSpec) -> str:
    """Render *parsed* back to spec text; inverse of :func:`parse_trace_spec`.

    ``parse_trace_spec(format_trace_spec(p)) == p`` for every parse
    result (the property suite holds the round trip over fuzzed specs).
    """
    return ":".join((parsed.head,) + parsed.params)


def canonical_trace_spec(spec: str) -> str:
    """The one spelling of *spec* that every memo and cache key uses.

    A ``kernel:`` spec is written as :attr:`KernelInstance.source
    <repro.kernels.KernelInstance.source>` spells it: the loop number as
    an int, the default ``n`` filled in, and only the non-default
    options, in a fixed order (``kernel:05`` and ``kernel:5:n=200`` are
    both ``kernel:5:n=200``).  Every other family is its
    :func:`format_trace_spec` text.  A malformed ``kernel:`` spec raises
    :class:`UnknownTraceSourceError`.
    """
    parsed = parse_trace_spec(spec)
    if parsed.head != "kernel":
        return format_trace_spec(parsed)
    return _build(spec, _kernel_options, parsed.params).canonical


class UnknownTraceSourceError(ValueError):
    """An unrecognised or malformed trace-source specification.

    The trace-side twin of :class:`repro.core.registry.UnknownSpecError`:
    carries the offending spec, the reason (for a known head with bad
    parameters) and the accepted grammar, and is raised for *every*
    rejected spec so consumers need exactly one except clause.
    """

    def __init__(self, spec: str, reason: Optional[str] = None) -> None:
        self.spec = spec
        self.reason = reason
        self.valid = available_sources()
        detail = (
            f"bad trace-source spec {spec!r}: {reason}"
            if reason
            else f"unknown trace source {spec!r}"
        )
        super().__init__(f"{detail}; accepted: {self.valid}")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSource:
    """One registered way of producing a trace.

    Attributes:
        name: the spec head this source answers to.
        description: one-line summary for listings.
        templates: accepted spec shapes, for help output.
        builder: maps the parsed parameter tokens to a trace.
        seeded: True for deterministic seeded generator families (the
            ones the verifier can sweep and the calibration envelopes
            cover); False for fixed programs and external files.
    """

    name: str
    description: str
    templates: Tuple[str, ...]
    builder: Callable[[Tuple[str, ...]], Trace]
    seeded: bool = False


_SOURCES: Dict[str, TraceSource] = {}


def register_source(source: TraceSource) -> TraceSource:
    """Register *source* under its name (last registration wins)."""
    _SOURCES[source.name] = source
    return source


def source_names() -> Tuple[str, ...]:
    """The registered spec heads, sorted."""
    return tuple(sorted(_SOURCES))


def list_sources() -> Tuple[TraceSource, ...]:
    """Every registered source, sorted by name."""
    return tuple(_SOURCES[name] for name in sorted(_SOURCES))


def available_sources() -> str:
    """Human-readable description of accepted trace-source specs."""
    templates = []
    for name in sorted(_SOURCES):
        templates.extend(_SOURCES[name].templates)
    return " | ".join(templates)


def trace_source(spec: str) -> Trace:
    """Resolve a trace-source spec to a :class:`Trace`.

    Any rejected spec -- unknown head or malformed parameters -- raises
    :class:`UnknownTraceSourceError` (a ``ValueError`` subclass).  File
    archive problems keep their own precise diagnostics
    (:class:`~repro.trace.importer.TraceImportError` with path and line
    number) instead of being folded into the spec error.
    """
    parsed = parse_trace_spec(spec)
    source = _SOURCES.get(parsed.head)
    if source is None:
        raise UnknownTraceSourceError(spec)
    return _build(spec, source.builder, parsed.params)


def kernel_instance(spec: str) -> "KernelInstance":
    """The :class:`~repro.kernels.KernelInstance` a ``kernel:`` spec names.

    The one place a kernel spec becomes a program: the ``kernel`` source
    verifies this instance's trace, and the program listing
    (``repro disasm``) reads it.  Other heads and bad parameters raise
    :class:`UnknownTraceSourceError`.
    """
    parsed = parse_trace_spec(spec)
    if parsed.head != "kernel":
        raise UnknownTraceSourceError(
            spec, reason="only kernel: specs name an assembly program"
        )
    return _build(spec, _kernel_instance, parsed.params)


def _build(spec: str, builder: Callable, params: Tuple[str, ...]):
    """``builder(params)``, any ``ValueError`` folded into a spec error."""
    from .io import TraceFormatError

    try:
        return builder(params)
    except (UnknownTraceSourceError, TraceFormatError):
        raise
    except ValueError as exc:
        raise UnknownTraceSourceError(spec, reason=str(exc)) from None


# ----------------------------------------------------------------------
# Parameter-token helpers
# ----------------------------------------------------------------------

def _split_params(
    params: Tuple[str, ...], presets: Tuple[str, ...] = ()
) -> Tuple[Optional[str], Dict[str, str]]:
    """Split tokens into at most one bare preset plus key=value pairs."""
    preset: Optional[str] = None
    pairs: Dict[str, str] = {}
    for token in params:
        if not token:
            raise ValueError("empty parameter token")
        if "=" in token:
            key, _, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValueError(f"malformed parameter {token!r}")
            if key in pairs:
                raise ValueError(f"duplicate parameter {key!r}")
            pairs[key] = value
        elif token in presets:
            if preset is not None:
                raise ValueError(
                    f"more than one preset name ({preset!r}, {token!r})"
                )
            preset = token
        else:
            raise ValueError(
                f"unknown token {token!r}"
                + (f"; presets: {', '.join(presets)}" if presets else "")
            )
    return preset, pairs


def _take_int(
    pairs: Dict[str, str], key: str, default: Optional[int]
) -> Optional[int]:
    value = pairs.pop(key, None)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _take_float(pairs: Dict[str, str], key: str, default: float) -> float:
    value = pairs.pop(key, None)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {value!r}") from None


_BOOL_TOKENS = {
    "on": True, "off": False, "true": True, "false": False,
    "yes": True, "no": False, "1": True, "0": False,
}


def _take_bool(pairs: Dict[str, str], key: str, default: bool) -> bool:
    value = pairs.pop(key, None)
    if value is None:
        return default
    try:
        return _BOOL_TOKENS[value]
    except KeyError:
        raise ValueError(
            f"{key} must be on/off, got {value!r}"
        ) from None


def _reject_leftovers(pairs: Dict[str, str], accepted: str) -> None:
    if pairs:
        unknown = ", ".join(sorted(pairs))
        raise ValueError(
            f"unknown parameter(s) {unknown}; accepted: {accepted}"
        )


# ----------------------------------------------------------------------
# Built-in sources.  Builders import their producers lazily: the kernel
# and workload layers themselves import ``repro.trace``, so eager
# imports here would be circular.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _KernelOptions:
    """A parsed ``kernel:`` spec, with the default size filled in."""

    number: int
    n: int
    unroll: int = 1
    schedule: bool = True
    vector: bool = False
    explicit: bool = False

    @property
    def canonical(self) -> str:
        text = f"kernel:{self.number}:n={self.n}"
        if self.vector:
            return text + ":vector=on"
        if self.unroll != 1:
            text += f":unroll={self.unroll}"
        if not self.schedule:
            text += ":schedule=off"
        if self.explicit:
            text += ":addressing=explicit"
        return text


def _kernel_options(params: Tuple[str, ...]) -> _KernelOptions:
    from ..kernels import ALL_LOOPS, default_size

    if not params:
        raise ValueError(
            f"'kernel' needs a loop number (1..{max(ALL_LOOPS)})"
        )
    token = params[0]
    number_text = token[1:] if token.startswith("k") else token
    try:
        number = int(number_text)
    except ValueError:
        raise ValueError(f"bad loop number {token!r}") from None

    _, pairs = _split_params(params[1:])
    # Absent n is the default size; an explicit n, 0 included, is the
    # kernel builder's to accept or reject.
    n = _take_int(pairs, "n", None)
    if number not in ALL_LOOPS:
        from ..kernels.extended import EXTENDED_LOOPS, EXTENDED_SIZES

        if number not in EXTENDED_LOOPS:
            raise ValueError(f"no Livermore loop numbered {number}")
        _reject_leftovers(pairs, f"n (extended kernel {number})")
        return _KernelOptions(
            number, EXTENDED_SIZES[number] if n is None else n
        )

    unroll = _take_int(pairs, "unroll", 1)
    if unroll < 1:
        raise ValueError(f"unroll must be >= 1, got {unroll}")
    schedule = _take_bool(pairs, "schedule", True)
    vector = _take_bool(pairs, "vector", False)
    addressing = pairs.pop("addressing", "folded")
    if addressing not in ("folded", "explicit"):
        raise ValueError(
            f"addressing must be folded or explicit, got {addressing!r}"
        )
    explicit = addressing == "explicit"
    _reject_leftovers(pairs, "n, unroll, schedule, vector, addressing")
    if vector:
        from ..kernels.vectorized import VECTORIZED_LOOPS

        if number not in VECTORIZED_LOOPS:
            raise ValueError(
                f"loop {number} has no vectorised encoding "
                f"(available: {', '.join(map(str, VECTORIZED_LOOPS))})"
            )
        if unroll != 1 or not schedule or explicit:
            raise ValueError(
                "vector=on does not combine with unroll/schedule/"
                "addressing overrides"
            )
    return _KernelOptions(
        number, default_size(number) if n is None else n,
        unroll, schedule, vector, explicit,
    )


def _kernel_instance(params: Tuple[str, ...]) -> "KernelInstance":
    return _instance_of(_kernel_options(params))


def _instance_of(options: _KernelOptions) -> "KernelInstance":
    from ..kernels import ALL_LOOPS, build_kernel

    if options.number not in ALL_LOOPS:
        from ..kernels.extended import build_extended

        return build_extended(options.number, options.n)
    if options.vector:
        from ..kernels.vectorized import build_vectorized

        return build_vectorized(options.number, options.n)
    return build_kernel(
        options.number, options.n, schedule=options.schedule,
        unroll=options.unroll, explicit_addressing=options.explicit,
    )


def _build_kernel_source(params: Tuple[str, ...]) -> Trace:
    from ..asm.errors import ExecutionError
    from ..kernels.common import KernelVerificationError

    options = _kernel_options(params)
    try:
        return _instance_of(options).verify()
    except (ExecutionError, KernelVerificationError):
        if options.unroll == 1:
            raise
        # An unrolled body keeps one loop-closing branch per *unroll*
        # copies, so a trip count that *unroll* does not divide runs past
        # the loop's end: the program faults or computes wrong arrays.
        raise ValueError(
            f"unroll={options.unroll} does not divide every trip count "
            f"of loop {options.number} at n={options.n}"
        ) from None


#: ``synthetic`` presets: named corners of the SyntheticSpec space.
_SYNTHETIC_PRESETS: Dict[str, Dict[str, object]] = {
    "default": {},
    # Memory-dominated streaming: most of the body touches memory.
    "stride": {"body_ops": 12, "memory_fraction": 0.7, "chains": 2},
    # One deep recurrence: the least ILP the generator can express.
    "deep": {"body_ops": 16, "memory_fraction": 0.15, "chains": 1,
             "loop_carried": True},
    # Four independent chains restarted per iteration: the most ILP.
    "wide": {"body_ops": 16, "memory_fraction": 0.15, "chains": 4,
             "loop_carried": False},
}


def _build_synthetic_source(params: Tuple[str, ...]) -> Trace:
    from ..workloads.synthetic import SyntheticSpec, synthetic_trace

    preset, pairs = _split_params(params, tuple(_SYNTHETIC_PRESETS))
    base = dict(_SYNTHETIC_PRESETS[preset or "default"])
    spec = SyntheticSpec(**base)
    spec = dataclasses.replace(
        spec,
        iterations=_take_int(pairs, "n", spec.iterations),
        body_ops=_take_int(pairs, "body", spec.body_ops),
        memory_fraction=_take_float(pairs, "mem", spec.memory_fraction),
        chains=_take_int(pairs, "chains", spec.chains),
        loop_carried=_take_bool(pairs, "carried", spec.loop_carried),
        seed=_take_int(pairs, "seed", spec.seed),
    )
    _reject_leftovers(pairs, "n, body, mem, chains, carried, seed")
    return synthetic_trace(spec)


def _build_fuzz_source(params: Tuple[str, ...]) -> Trace:
    from ..verify.fuzz import FUZZ_FAMILIES, fuzz_trace

    preset, pairs = _split_params(params, tuple(FUZZ_FAMILIES))
    spec = FUZZ_FAMILIES[preset or "default"]
    seed = _take_int(pairs, "seed", 0)
    spec = dataclasses.replace(
        spec,
        length=_take_int(pairs, "len", spec.length),
        dependency_density=_take_float(pairs, "dep", spec.dependency_density),
        memory_fraction=_take_float(pairs, "mem", spec.memory_fraction),
        branch_fraction=_take_float(pairs, "branch", spec.branch_fraction),
        taken_fraction=_take_float(pairs, "taken", spec.taken_fraction),
    )
    _reject_leftovers(pairs, "seed, len, dep, mem, branch, taken")
    return fuzz_trace(seed, spec)


def _build_branchy_source(params: Tuple[str, ...]) -> Trace:
    from ..workloads.families import BranchySpec, branchy_trace

    _, pairs = _split_params(params)
    base = BranchySpec()
    spec = BranchySpec(
        length=_take_int(pairs, "n", base.length),
        seed=_take_int(pairs, "seed", base.seed),
        taken_fraction=_take_float(pairs, "taken", base.taken_fraction),
        block=_take_int(pairs, "block", base.block),
    )
    _reject_leftovers(pairs, "n, seed, taken, block")
    return branchy_trace(spec)


def _build_pointer_source(params: Tuple[str, ...]) -> Trace:
    from ..workloads.families import PointerSpec, pointer_trace

    _, pairs = _split_params(params)
    base = PointerSpec()
    spec = PointerSpec(
        length=_take_int(pairs, "n", base.length),
        seed=_take_int(pairs, "seed", base.seed),
        chains=_take_int(pairs, "chains", base.chains),
        gather_fraction=_take_float(pairs, "gather", base.gather_fraction),
    )
    _reject_leftovers(pairs, "n, seed, chains, gather")
    return pointer_trace(spec)


def _build_mixed_source(params: Tuple[str, ...]) -> Trace:
    from ..workloads.families import MixedSpec, mixed_trace

    _, pairs = _split_params(params)
    base = MixedSpec()
    spec = MixedSpec(
        elements=_take_int(pairs, "n", base.elements),
        seed=_take_int(pairs, "seed", base.seed),
        strip=_take_int(pairs, "strip", base.strip),
    )
    _reject_leftovers(pairs, "n, seed, strip")
    return mixed_trace(spec)


def _build_file_source(params: Tuple[str, ...]) -> Trace:
    from .importer import import_trace

    if not params or not params[0]:
        raise ValueError("'file' needs a path, e.g. file:trace.jsonl")
    return import_trace(params[0])


register_source(TraceSource(
    name="kernel",
    description=(
        "Livermore loop kernels (the paper's 14, plus 18, 19, 21, 24)"
    ),
    templates=(
        "kernel:<loop>[:n=<size>][:unroll=<k>][:schedule=on|off]"
        "[:vector=on|off][:addressing=folded|explicit]",
        "kernel:<18|19|21|24>[:n=<size>]",
    ),
    builder=_build_kernel_source,
))
register_source(TraceSource(
    name="synthetic",
    description="synthetic loops with dialled-in characteristics",
    templates=(
        "synthetic[:default|stride|deep|wide][:n=<iters>][:body=<ops>]"
        "[:mem=<frac>][:chains=<1-4>][:carried=on|off][:seed=<s>]",
    ),
    builder=_build_synthetic_source,
    seeded=True,
))
register_source(TraceSource(
    name="fuzz",
    description="seeded random well-formed scalar traces (verify.fuzz)",
    templates=(
        "fuzz[:default|branchy|pointer|parallel][:seed=<s>][:len=<n>]"
        "[:dep=<frac>][:mem=<frac>][:branch=<frac>][:taken=<frac>]",
    ),
    builder=_build_fuzz_source,
    seeded=True,
))
register_source(TraceSource(
    name="branchy",
    description="control-dominated integer code (~25% branches)",
    templates=(
        "branchy[:n=<len>][:seed=<s>][:taken=<frac>][:block=<ops>]",
    ),
    builder=_build_branchy_source,
    seeded=True,
))
register_source(TraceSource(
    name="pointer",
    description="pointer-chasing loads with gathers off the chain",
    templates=(
        "pointer[:n=<len>][:seed=<s>][:chains=<1-4>][:gather=<frac>]",
    ),
    builder=_build_pointer_source,
    seeded=True,
))
register_source(TraceSource(
    name="mixed",
    description="mixed scalar-vector strips (vector-capable machines)",
    templates=("mixed[:n=<elements>][:seed=<s>][:strip=<1-64>]",),
    builder=_build_mixed_source,
    seeded=True,
))
register_source(TraceSource(
    name="file",
    description="external JSONL trace archive (docs/traces.md schema)",
    templates=("file:<path.jsonl>",),
    builder=_build_file_source,
))

#: Machine specs that accept vector traces: only Simple and the
#: scoreboard family model element streaming; every other machine
#: rejects vector instructions by design.
MIXED_MACHINES: Tuple[str, ...] = (
    "simple", "serialmemory", "nonsegmented", "cray", "cray-unchained",
)


#: Documented calibration envelopes: for each seeded family, the closed
#: interval each statistic stays inside across seeds (held to 200 seeds
#: per family by the calibration tests; see docs/traces.md for the
#: measured ranges the bounds were set from).  The oracle's
#: partial-order reasoning leans on these shapes -- e.g. branchy traces
#: really exercising branch latency, pointer traces really carrying
#: serial address chains -- so a generator drifting outside its envelope
#: is a test failure, not a silent change of what the suite covers.
FAMILY_ENVELOPES: Dict[str, Dict[str, Tuple[float, float]]] = {
    "branchy": {
        "branch_fraction": (0.15, 0.30),
        "memory_fraction": (0.02, 0.20),
        "mean_dependence_distance": (2.5, 7.0),
        "dependent_fraction": (0.70, 1.0),
        "vector_fraction": (0.0, 0.0),
    },
    "pointer": {
        "branch_fraction": (0.0, 0.0),
        "memory_fraction": (0.50, 0.95),
        "mean_dependence_distance": (1.0, 3.5),
        "dependent_fraction": (0.80, 1.0),
        "vector_fraction": (0.0, 0.0),
    },
    "mixed": {
        "branch_fraction": (0.0, 0.0),
        "memory_fraction": (0.20, 0.45),
        "mean_dependence_distance": (1.0, 4.0),
        "dependent_fraction": (0.55, 1.0),
        "vector_fraction": (0.35, 0.65),
    },
    "fuzz": {
        "branch_fraction": (0.0, 0.35),
        "memory_fraction": (0.0, 0.55),
        "mean_dependence_distance": (1.0, 30.0),
        "dependent_fraction": (0.10, 1.0),
        "vector_fraction": (0.0, 0.0),
    },
    "synthetic": {
        "branch_fraction": (0.005, 0.35),
        "memory_fraction": (0.0, 0.80),
        "mean_dependence_distance": (1.0, 30.0),
        "dependent_fraction": (0.50, 1.0),
        "vector_fraction": (0.0, 0.0),
    },
}
