"""Outside-in layer tracing for the end-to-end benchmark.

A traced pass wraps each layer's public entry point, as its caller binds
it, with a span recorder.  Spans stay in memory and are reduced at exit
to per-layer self times and counters; nothing under ``src/`` changes.
:func:`install` patches the entry points and returns a function that
restores them, so untraced passes in the same process run the
unmodified code.

A layer's self time is its span's duration minus the time its direct
child spans cover.  Spans nest strictly (one thread, begin/end on a
stack), so the self times of all spans in a pass add up to the pass's
wall time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Replay families: the compiled-loop families of ``fastpath.family_of``,
#: ``mixed`` for a sweep whose members span several families, and
#: ``other`` for machines without a compiled loop.
FAMILIES = (
    "scoreboard", "inorder", "ooo", "ruu", "tomasulo", "cdc6600", "spec",
    "mixed", "other",
)

#: Pass root spans; their self time is the part of the pass no layer
#: claims (the benchmark loop and the facade around the layers).
PASS = "pass"


@dataclass
class Span:
    layer: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder with strict nesting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def begin(self, layer: str, **args: Any) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, self.clock(), parent, args=args))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> Span:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} ended out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    def call(self, layer: str, function: Callable, *args: Any, **kwargs: Any):
        """Run *function* inside a span; returns ``(result, span)``."""
        index = self.begin(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            span = self.end(index)
        return result, span

    def nesting_errors(self) -> List[str]:
        """Spans whose children sum to more than the span or leave it."""
        errors = []
        for index, span in enumerate(self.spans):
            if span.child_s > span.duration + 1e-9:
                errors.append(
                    f"span {index} ({span.layer}): children "
                    f"{span.child_s:.6f}s exceed {span.duration:.6f}s"
                )
            if span.parent >= 0:
                parent = self.spans[span.parent]
                if span.start < parent.start or span.end > parent.end:
                    errors.append(
                        f"span {index} ({span.layer}) leaves its parent "
                        f"{span.parent} ({parent.layer})"
                    )
        return errors

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as a Chrome ``trace_event`` document."""
        origin = min((span.start for span in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": span.layer,
                    "cat": span.layer.split(".")[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": os.getpid(),
                    "tid": 1,
                    "args": span.args,
                }
                for span in self.spans
            ],
        }


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _sweep_family(items: Sequence[Any]) -> str:
    from repro.core import fastpath

    families = set()
    for item in items:
        simulator = (
            item.simulator if isinstance(item, fastpath.SweepItem) else item[0]
        )
        families.add(fastpath.family_of(simulator) or "other")
    return families.pop() if len(families) == 1 else "mixed"


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps."""
    import repro.api
    import repro.explore
    import repro.explore.model
    import repro.harness.engine as engine
    import repro.trace.sources
    import repro.verify.oracle
    import repro.verify.runner
    from repro.core import fastpath
    from repro.trace import DiskCache

    originals: List[tuple] = []

    def patch(owner: Any, name: str, make: Callable[[Callable], Callable]):
        original = getattr(owner, name)
        originals.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def timed(layer: str, note: Optional[Callable] = None):
        """A wrapper factory: one *layer* span per call; *note* records
        counters on the span from the call's arguments and result."""
        def make(original):
            def wrapper(*args, **kwargs):
                result, span = tracer.call(layer, original, *args, **kwargs)
                if note is not None:
                    note(span, args, kwargs, result)
                return result
            return wrapper
        return make

    def compile_eagerly(trace) -> None:
        # Lower each new trace as soon as it exists, so compile time gets
        # its own span instead of hiding in whichever layer asks first.
        # The compile cache keeps the result for as long as the trace
        # lives, so later callers hit it and the compile count is
        # unchanged.
        _, span = tracer.call("fastpath.compile", fastpath.compile_trace, trace)
        span.args["trace"] = f"{trace.name}/{len(trace)}"

    def sweep(original):
        def wrapper(trace, items, *args, **kwargs):
            index = tracer.begin(
                "replay." + _sweep_family(items),
                instr=len(trace) * len(items),
            )
            try:
                return original(trace, items, *args, **kwargs)
            finally:
                tracer.end(index)
        return wrapper

    def built(original):
        # The engine's simulators: wrap each instance's ``simulate`` so a
        # per-cell replay outside a sweep is still attributed to replay.
        def wrapper(spec, *args, **kwargs):
            simulator = original(spec, *args, **kwargs)
            layer = "replay." + (fastpath.family_of(simulator) or "other")
            simulate = simulator.simulate

            def traced_simulate(trace, *sim_args, **sim_kwargs):
                result, span = tracer.call(
                    layer, simulate, trace, *sim_args, **sim_kwargs
                )
                span.args["instr"] = len(trace)
                return result

            simulator.simulate = traced_simulate
            return simulator
        return wrapper

    def cache_call(layer: str):
        def make(original):
            def wrapper(self, *args, **kwargs):
                before = self.result_corruptions + self.trace_corruptions
                result, span = tracer.call(layer, original, self, *args, **kwargs)
                span.args["corruptions"] = (
                    self.result_corruptions + self.trace_corruptions - before
                )
                if layer == "diskcache.load":
                    span.args["hit"] = result is not None
                return result
            return wrapper
        return make

    def loaded_trace(original):
        def wrapper(self, *args, **kwargs):
            trace = original(self, *args, **kwargs)
            if trace is not None:
                compile_eagerly(trace)
            return trace
        return wrapper

    def captured(span, args, kwargs, trace):
        span.args["instr"] = len(trace)
        compile_eagerly(trace)

    def manifest_size(span, args, kwargs, path):
        span.args["bytes"] = os.path.getsize(path) if path else 0

    def candidates(span, args, kwargs, result):
        span.args["candidates"] = result.total

    def sims(span, args, kwargs, result):
        span.args["sims"] = len(args[0]) * len(args[1])

    def cells(span, args, kwargs, result):
        span.args["cells"] = len(args[0].cells)

    patch(fastpath, "simulate_sweep", sweep)
    patch(engine, "build_simulator", built)
    patch(repro.trace.sources, "trace_source", timed("sources.capture", captured))
    patch(engine, "trace_source", timed("sources.capture", captured))
    patch(repro.verify.runner, "fuzz_trace", timed("verify.fuzz", captured))
    patch(DiskCache, "load_trace", cache_call("diskcache.load"))
    # Wraps the wrapper above: the eager compile follows the load span.
    patch(DiskCache, "load_trace", loaded_trace)
    patch(DiskCache, "load_result", cache_call("diskcache.load"))
    patch(DiskCache, "store_trace", cache_call("diskcache.store"))
    patch(DiskCache, "store_result", cache_call("diskcache.store"))
    patch(engine, "compute_limits", timed("limits"))
    patch(repro.explore.model, "compute_limits", timed("limits"))
    patch(repro.verify.oracle, "pseudo_dataflow_schedule", timed("limits"))
    patch(repro.verify.oracle, "resource_limit", timed("limits"))
    patch(repro.api, "run_plan", timed("engine", cells))
    patch(engine, "write_manifest", timed("obs.manifest", manifest_size))
    patch(repro.explore, "write_manifest", timed("obs.manifest", manifest_size))
    patch(repro.api, "run_verification", timed("verify.campaign"))
    patch(repro.verify.runner, "check_invariants", timed("verify.invariants"))
    patch(repro.verify.runner, "run_oracle", timed("verify.oracle"))
    patch(repro.api, "_explore", timed("explore.pipeline"))
    patch(repro.explore, "build_anchors", timed("explore.anchors"))
    patch(repro.explore, "screen_space", timed("explore.screen", candidates))
    patch(repro.explore, "simulate_specs", timed("explore.exact", sims))

    def restore() -> None:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
        originals.clear()

    return restore


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(
    tracer: Tracer,
    *,
    fastpath_deltas: Dict[str, float],
    cache_bytes: Sequence[int],
    time_scale: float = 1.0,
) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, keyed by metric name.

    Times are shares (%) of the traced passes' total wall time, so they
    add up to 100 with ``trace.unattributed_pct``; counts are per traced
    pass; throughputs divide by self times multiplied by *time_scale*
    (the host-speed rescaling of the end-to-end times).
    *fastpath_deltas* are ``fastpath.stats()`` deltas summed over the
    traced passes; *cache_bytes* is the DiskCache size after each traced
    pass.
    """
    roots = [span for span in tracer.spans if span.layer == PASS]
    passes = len(roots)
    wall = sum(span.duration for span in roots)
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    traces = set()

    def count(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0.0) + value

    for span in tracer.spans:
        self_s[span.layer] = self_s.get(span.layer, 0.0) + span.self_s
        count(span.layer + ".calls", 1)
        for key, value in span.args.items():
            if key == "trace":
                # Distinct traces per pass; every captured, fuzzed or
                # loaded trace is compiled eagerly, so this sees them all.
                traces.add((counts.get(PASS + ".calls"), value))
            else:
                count(f"{span.layer}.{key}", float(value))

    def pct(layer: str) -> float:
        return 100.0 * _ratio(self_s.get(layer, 0.0), wall)

    def per_pass(key: str) -> float:
        return _ratio(counts.get(key, 0.0), passes)

    def rate(key: str, layer: str) -> float:
        return _ratio(counts.get(key, 0.0), self_s.get(layer, 0.0) * time_scale)

    metrics: Dict[str, float] = {}
    for family in FAMILIES:
        layer = "replay." + family
        metrics[f"fastpath.replay.{family}_pct"] = pct(layer)
        metrics[f"fastpath.replay.{family}_instr"] = per_pass(layer + ".instr")
        metrics[f"fastpath.replay.{family}_minstr_per_s"] = (
            rate(layer + ".instr", layer) / 1e6
        )
    batch_runs = (
        fastpath_deltas.get("batch.fast_runs", 0.0)
        + fastpath_deltas.get("batch.fallback_runs", 0.0)
    )
    metrics["fastpath.batch_fallback_ratio"] = _ratio(
        fastpath_deltas.get("batch.fallback_runs", 0.0), batch_runs
    )
    compiles = fastpath_deltas.get("compiles", 0.0)
    metrics["fastpath.compile_pct"] = pct("fastpath.compile")
    metrics["fastpath.compiles"] = _ratio(compiles, passes)
    metrics["fastpath.compiles_per_trace"] = _ratio(compiles, len(traces))
    metrics["sources.capture_pct"] = pct("sources.capture")
    metrics["sources.traces"] = per_pass("sources.capture.calls")
    metrics["sources.capture_instr_per_s"] = rate(
        "sources.capture.instr", "sources.capture"
    )
    metrics["verify.fuzz_pct"] = pct("verify.fuzz")
    metrics["limits.pct"] = pct("limits")
    metrics["limits.calls"] = per_pass("limits.calls")
    loads = counts.get("diskcache.load.calls", 0.0)
    metrics["diskcache.load_pct"] = pct("diskcache.load")
    metrics["diskcache.loads"] = per_pass("diskcache.load.calls")
    metrics["diskcache.store_pct"] = pct("diskcache.store")
    metrics["diskcache.stores"] = per_pass("diskcache.store.calls")
    metrics["diskcache.hit_ratio"] = _ratio(
        counts.get("diskcache.load.hit", 0.0), loads
    )
    metrics["diskcache.corruptions"] = per_pass(
        "diskcache.load.corruptions"
    ) + per_pass("diskcache.store.corruptions")
    metrics["diskcache.mb"] = (
        _ratio(sum(cache_bytes), len(cache_bytes)) / 2**20
    )
    metrics["engine.self_pct"] = pct("engine")
    metrics["engine.cells"] = per_pass("engine.cells")
    metrics["obs.manifest_pct"] = pct("obs.manifest")
    metrics["obs.manifests"] = per_pass("obs.manifest.calls")
    metrics["obs.manifest_kb"] = _ratio(
        counts.get("obs.manifest.bytes", 0.0),
        counts.get("obs.manifest.calls", 0.0),
    ) / 1024
    metrics["verify.campaign_self_pct"] = pct("verify.campaign")
    metrics["verify.invariants_pct"] = pct("verify.invariants")
    metrics["verify.invariant_checks"] = per_pass("verify.invariants.calls")
    metrics["verify.oracle_self_pct"] = pct("verify.oracle")
    metrics["verify.oracle_calls"] = per_pass("verify.oracle.calls")
    metrics["explore.self_pct"] = pct("explore.pipeline")
    metrics["explore.anchors_self_pct"] = pct("explore.anchors")
    metrics["explore.screen_pct"] = pct("explore.screen")
    metrics["explore.screen_candidates_per_s"] = rate(
        "explore.screen.candidates", "explore.screen"
    )
    metrics["explore.exact_self_pct"] = pct("explore.exact")
    metrics["explore.sims"] = per_pass("explore.exact.sims")
    metrics["trace.unattributed_pct"] = pct(PASS)
    return metrics


def write_outputs(
    tracer: Tracer, metrics: Dict[str, float], prefix: Path
) -> None:
    """Write ``<prefix>.trace.json`` (Chrome) and ``<prefix>.layers.json``."""
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.trace.json").write_text(json.dumps(tracer.chrome_trace()))
    Path(f"{prefix}.layers.json").write_text(
        json.dumps(metrics, indent=1, sort_keys=True) + "\n"
    )
