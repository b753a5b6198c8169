"""Differential tests: the compiled fast path is bit-identical.

Every fast-path machine replays hundreds of fuzzed traces through both
:meth:`simulate` (fast) and :meth:`reference_simulate` (the event-capable
reference loop); cycle counts, issue rates *and the per-instruction
issue/completion schedule* must match exactly.  The dispatch tests pin
the selection rule: ``simulate`` takes the fast path; an observed replay
(``simulate_observed``) runs the reference loop and receives its
events, and leaves the next ``simulate`` on the fast path.
"""

from __future__ import annotations

import pytest

from repro.core import M5BR2, M5BR5, M11BR2, M11BR5, fastpath
from repro.core.buses import BusKind
from repro.core.cdc6600 import CDC6600Machine
from repro.core.registry import build_simulator
from repro.core.ruu import RUUMachine
from repro.core.scoreboard import cray_like_machine
from repro.core.inorder_multi import InOrderMultiIssueMachine
from repro.core.ooo_multi import OutOfOrderMultiIssueMachine
from repro.core.tomasulo import TomasuloMachine
from repro.obs.events import EventCollector, EventKind
from repro.obs.telemetry import strip_telemetry
from repro.verify.fuzz import FuzzSpec, fuzz_trace

#: Every registry spec whose simulate() dispatches to the fast path.
FAST_PATH_SPECS = (
    "cray",
    "serialmemory",
    "nonsegmented",
    "inorder:1",
    "inorder:2",
    "inorder:4",
    "inorder:4:1bus",
    "inorder:4:xbar",
    "cdc6600",
    "tomasulo",
    "ooo:1",
    "ooo:2",
    "ooo:4",
    "ooo:4:1bus",
    "ooo:4:xbar",
    "ruu:1:1",
    "ruu:2:10",
    "ruu:2:50",
    "ruu:4:50",
    "ruu:4:50:1bus",
)

CONFIGS = (M11BR5, M11BR2, M5BR5, M5BR2)

N_SEEDS = 300

#: One shared trace pool: generated once, replayed by every machine
#: (which also exercises the per-trace compile cache across machines).
_SHAPE = FuzzSpec()
TRACES = tuple(fuzz_trace(seed, _SHAPE) for seed in range(N_SEEDS))


@pytest.fixture(autouse=True)
def _fastpath_on():
    """Pin fast-path auto-selection on (REPRO_FASTPATH=0 environments)."""
    previous = fastpath.set_enabled(True)
    yield
    fastpath.set_enabled(previous)


def _fast_fn(simulator):
    """The compiled loop *simulator*'s ``simulate`` dispatches to."""
    return fastpath.python_backend.FAMILY_LOOPS[fastpath.family_of(simulator)]


def _assert_fast_matches_reference(simulator, trace, config, context):
    """One trace, one machine: cycles, rates and non-telemetry detail of
    :meth:`simulate` (fast) against :meth:`reference_simulate`, and the
    compiled loop's recorded per-instruction (issue, complete) pairs
    against the reference path's event stream.

    The fast path additionally carries tlm.* telemetry entries (covered
    by tests/test_obs_telemetry.py).  The RUU and Tomasulo references
    emit no COMPLETE for branches (they never occupy a window slot); the
    fast loops record their resolution, issue + branch_latency, for
    those.
    """
    fast = simulator.simulate(trace, config)
    reference = simulator.reference_simulate(trace, config)
    assert fast.cycles == reference.cycles, context
    assert fast.issue_rate == reference.issue_rate, context
    assert fast.instructions == reference.instructions, context
    assert strip_telemetry(fast.detail) == dict(reference.detail or {}), (
        context
    )

    schedule = []
    recorded = _fast_fn(simulator)(simulator, trace, config, schedule)
    assert recorded.cycles == fast.cycles, context
    collector = EventCollector()
    simulator.simulate_observed(trace, config, collector)
    issues = collector.cycles_by_seq(EventKind.ISSUE)
    completes = collector.cycles_by_seq(EventKind.COMPLETE)
    expected = [
        (
            issues[entry.seq],
            completes.get(
                entry.seq, issues[entry.seq] + config.branch_latency
            ),
        )
        for entry in trace.entries
    ]
    assert schedule == expected, context


# ----------------------------------------------------------------------
# The differential sweep
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", FAST_PATH_SPECS)
def test_fast_path_matches_reference(spec):
    """300 fuzzed traces: cycles, rates and schedules all identical."""
    simulator = build_simulator(spec)
    for seed, trace in enumerate(TRACES):
        config = CONFIGS[seed % len(CONFIGS)]
        _assert_fast_matches_reference(
            simulator, trace, config, (spec, trace.name)
        )


@pytest.mark.parametrize("bus_kind", list(BusKind), ids=str)
@pytest.mark.parametrize("width", (2, 4))
def test_ooo_without_war_matches_reference(width, bus_kind):
    """The WAR-off ablation (``benchmarks/bench_ablations.py``) has no
    spec string, so it is built here: same pool, same checks."""
    simulator = OutOfOrderMultiIssueMachine(
        width, bus_kind, enforce_war=False
    )
    for seed, trace in enumerate(TRACES):
        config = CONFIGS[seed % len(CONFIGS)]
        _assert_fast_matches_reference(
            simulator, trace, config, (simulator.name, trace.name)
        )


def test_fast_path_runs_by_default():
    """A plain simulate() really is the fast path (not a no-op
    dispatch that silently falls back)."""
    simulator = cray_like_machine()
    fastpath.reset_stats()
    simulator.simulate(TRACES[0], M11BR5)
    stats = fastpath.stats()
    assert stats["fast_runs"] == 1
    assert stats["compiles"] + stats["cache_hits"] >= 1


def test_set_enabled_false_forces_reference():
    simulator = cray_like_machine()
    previous = fastpath.set_enabled(False)
    try:
        fastpath.reset_stats()
        disabled = simulator.simulate(TRACES[1], M11BR5)
        assert fastpath.stats()["fast_runs"] == 0
    finally:
        fastpath.set_enabled(previous)
    assert disabled.cycles == simulator.simulate(TRACES[1], M11BR5).cycles


def test_compile_cache_hits_on_same_trace_object():
    fastpath.reset_stats()
    first = fastpath.compile_trace(TRACES[2])
    again = fastpath.compile_trace(TRACES[2])
    assert again is first
    stats = fastpath.stats()
    assert stats["cache_hits"] >= 1


def test_compile_cache_evicts_dead_traces():
    """1k throwaway traces must not grow the compile cache (weakref
    eviction) -- the regression a plain dict cache would reintroduce."""
    import gc

    machine = TomasuloMachine()
    fastpath.reset_stats()
    before = len(fastpath.ir._CACHE)
    shape = FuzzSpec(length=8)
    for seed in range(1000):
        throwaway = fuzz_trace(10_000 + seed, shape)
        fastpath.compile_trace(throwaway)
        if seed % 100 == 0:
            machine.simulate(throwaway, M11BR5)
        del throwaway
    gc.collect()
    assert len(fastpath.ir._CACHE) <= before + 2
    stats = fastpath.stats()
    assert stats["compiles"] == 1000
    assert stats["evictions"] >= 990


def test_vector_trace_rejected_with_reference_message():
    """Both paths reject vector traces with the identical error."""
    from repro.kernels.vectorized import build_vectorized

    trace = build_vectorized(12, 64).trace()
    machine = InOrderMultiIssueMachine(2)
    with pytest.raises(ValueError) as fast_error:
        machine.simulate(trace, M11BR5)
    with pytest.raises(ValueError) as reference_error:
        machine.reference_simulate(trace, M11BR5)
    assert str(fast_error.value) == str(reference_error.value)


# ----------------------------------------------------------------------
# Speculative family: predictor grid x options, schedules + telemetry
# ----------------------------------------------------------------------
#
# The spec machines keep their predictor on the fast path (it is
# deterministic and the compiled loop replays it), so the differential
# here additionally pins the branch-resolution schedule contract and the
# tlm.* telemetry (flush counters included) against the event stream.
# Tier-1 replays the full predictor grid over the shared 300-trace pool;
# the option variants (recovery penalty, value prediction, width / bus /
# window) run a fast subset here and the full matrix nightly.

from repro.core.spec import SpecMachine
from repro.obs.telemetry import SimTelemetry, telemetry_from_events

#: Every predictor on the default window.
SPEC_GRID_SPECS = (
    "spec:50:none",
    "spec:50:always",
    "spec:50:btfn",
    "spec:50:1bit",
    "spec:50:2bit",
    "spec:50:perfect",
    "spec:50:wrong",
)

#: Option variants: recovery penalty, value prediction, width, bus and
#: window extremes, and combinations thereof.
SPEC_VARIANT_SPECS = (
    "spec:1:2bit",
    "spec:8:2bit",
    "spec:50:2bit:rp=8",
    "spec:50:2bit:vp=last",
    "spec:50:2bit:vp=stride:vpp=6",
    "spec:50:2bit:units=2:bus=1bus",
    "spec:50:wrong:rp=5:vp=last",
)


def _assert_spec_matches_reference(simulator, trace, config, context):
    """One spec machine, one trace: cycles, rate, detail, schedule and
    telemetry all bit-identical between the compiled loop and the
    reference."""
    fast = simulator.simulate(trace, config)
    reference = simulator.reference_simulate(trace, config)
    assert fast.cycles == reference.cycles, context
    assert fast.issue_rate == reference.issue_rate, context
    assert fast.instructions == reference.instructions, context
    assert strip_telemetry(fast.detail) == dict(reference.detail or {}), (
        context
    )

    schedule = []
    recorded = _fast_fn(simulator)(simulator, trace, config, schedule)
    assert recorded.cycles == fast.cycles, context
    collector = EventCollector()
    simulator.simulate_observed(trace, config, collector)
    issues = collector.cycles_by_seq(EventKind.ISSUE)
    completes = collector.cycles_by_seq(EventKind.COMPLETE)
    # Branches never commit; their recorded resolution is the cycle
    # correct-path issue resumes: issue + the FLUSH window when
    # mispredicted, issue + 1 under a predictor, issue + branch latency
    # without one.  (The generic helper above assumes the RUU's
    # resolve-at-issue policy, which does not apply here.)
    flush_windows = {
        event.seq: event.cycles
        for event in collector.of_kind(EventKind.FLUSH)
        if event.reason == "MISPREDICT"
    }
    expected = []
    for entry in trace.entries:
        issue = issues[entry.seq]
        if entry.seq in completes:
            resolution = completes[entry.seq]
        elif entry.seq in flush_windows:
            resolution = issue + flush_windows[entry.seq]
        elif simulator.predictor_factory is None:
            resolution = issue + config.branch_latency
        else:
            resolution = issue + 1
        expected.append((issue, resolution))
    assert schedule == expected, context

    # Fast-loop telemetry == the reference event stream, folded.
    assert SimTelemetry.from_detail(fast.detail) == telemetry_from_events(
        collector.events,
        trace=trace,
        cycles=reference.cycles,
        family="spec",
        issue_units=simulator.issue_units,
    ), context


@pytest.mark.parametrize("spec", SPEC_GRID_SPECS)
def test_spec_grid_matches_reference(spec):
    """300 fuzzed traces per predictor: the full grid, tier-1."""
    simulator = build_simulator(spec)
    for seed, trace in enumerate(TRACES):
        config = CONFIGS[seed % len(CONFIGS)]
        _assert_spec_matches_reference(
            simulator, trace, config, (spec, trace.name)
        )


@pytest.mark.parametrize("spec", SPEC_VARIANT_SPECS)
def test_spec_variants_match_reference(spec):
    """Fast subset of the option variants (full matrix nightly)."""
    simulator = build_simulator(spec)
    for seed in range(0, N_SEEDS, 5):
        trace = TRACES[seed]
        config = CONFIGS[seed % len(CONFIGS)]
        _assert_spec_matches_reference(
            simulator, trace, config, (spec, trace.name)
        )


@pytest.mark.slow
@pytest.mark.parametrize("spec", SPEC_VARIANT_SPECS)
def test_spec_variants_match_reference_full_matrix(spec):
    """Nightly: every option variant over the whole pool x all configs."""
    simulator = build_simulator(spec)
    for trace in TRACES:
        for config in CONFIGS:
            _assert_spec_matches_reference(
                simulator, trace, config, (spec, trace.name, config.name)
            )


@pytest.mark.sources
@pytest.mark.parametrize("spec", SPEC_GRID_SPECS)
def test_spec_families_match_reference(spec):
    """The registry workload families through the spec grid."""
    simulator = build_simulator(spec)
    for trace in _family_traces_spec(range(2)):
        config = CONFIGS[len(trace) % len(CONFIGS)]
        _assert_spec_matches_reference(
            simulator, trace, config, (spec, trace.name)
        )


def _family_traces_spec(seeds):
    from repro.trace.sources import trace_source

    return [
        trace_source(f"{template}:seed={seed}")
        for template in (
            "branchy:n=96",
            "pointer:n=96",
            "fuzz:branchy",
            "synthetic:deep:n=10",
        )
        for seed in seeds
    ]


def test_spec_machine_takes_fast_path_with_predictor():
    """A spec machine with a predictor stays fast (the compiled loop
    replays the deterministic predictor itself)."""
    simulator = build_simulator("spec:50:2bit")
    assert isinstance(simulator, SpecMachine)
    assert simulator.predictor_factory is not None
    fastpath.reset_stats()
    simulator.simulate(TRACES[6], M11BR5)
    assert fastpath.stats()["fast_runs"] == 1


# ----------------------------------------------------------------------
# Registry-sourced workload families
# ----------------------------------------------------------------------
#
# The same three-way agreement (fast == reference on cycles, rates,
# telemetry and schedules) over every workload family the trace-source
# registry can mint, not just the default fuzzer shape.  Tier-1 runs a
# few seeds per family; nightly (-m "sources and slow") replays the full
# seed matrix.

from repro.trace.sources import MIXED_MACHINES, trace_source

#: Scalar family spec templates: replayable on every fast-path machine.
FAMILY_SPECS = (
    "branchy:n=96",
    "branchy:n=80:taken=0.85:block=5",
    "pointer:n=96",
    "pointer:n=96:chains=4:gather=0.6",
    "fuzz:branchy",
    "fuzz:pointer",
    "fuzz:parallel",
    "synthetic:stride:n=12",
    "synthetic:deep:n=10",
    "synthetic:wide:n=10",
)

#: Vector-strip family: only the scoreboard machines replay vector ops.
MIXED_SPECS = (
    "mixed:n=192",
    "mixed:n=100:strip=16",
)
MIXED_FAST_SPECS = tuple(
    spec for spec in FAST_PATH_SPECS if spec in MIXED_MACHINES
)

def _family_traces(templates, seeds):
    return [
        trace_source(f"{template}:seed={seed}")
        for template in templates
        for seed in seeds
    ]


@pytest.mark.sources
@pytest.mark.parametrize("spec", FAST_PATH_SPECS)
def test_families_match_reference(spec):
    """Fast subset: every registry family, a few seeds, all machines."""
    simulator = build_simulator(spec)
    for trace in _family_traces(FAMILY_SPECS, range(3)):
        config = CONFIGS[len(trace) % len(CONFIGS)]
        _assert_fast_matches_reference(
            simulator, trace, config, (spec, trace.name)
        )


@pytest.mark.sources
@pytest.mark.parametrize("spec", MIXED_FAST_SPECS)
def test_mixed_family_matches_reference(spec):
    """The scalar-vector strips agree on the vector-capable machines."""
    simulator = build_simulator(spec)
    for trace in _family_traces(MIXED_SPECS, range(3)):
        config = CONFIGS[len(trace) % len(CONFIGS)]
        _assert_fast_matches_reference(
            simulator, trace, config, (spec, trace.name)
        )


@pytest.mark.sources
@pytest.mark.slow
@pytest.mark.parametrize("spec", FAST_PATH_SPECS)
def test_families_match_reference_full_matrix(spec):
    """Nightly: the full family x seed matrix on every machine."""
    simulator = build_simulator(spec)
    for trace in _family_traces(FAMILY_SPECS, range(25)):
        for config in CONFIGS:
            _assert_fast_matches_reference(
                simulator, trace, config, (spec, trace.name, config.name)
            )


@pytest.mark.sources
@pytest.mark.slow
@pytest.mark.parametrize("spec", MIXED_FAST_SPECS)
def test_mixed_family_matches_reference_full_matrix(spec):
    simulator = build_simulator(spec)
    for trace in _family_traces(MIXED_SPECS, range(25)):
        for config in CONFIGS:
            _assert_fast_matches_reference(
                simulator, trace, config, (spec, trace.name, config.name)
            )


# ----------------------------------------------------------------------
# Observed-replay dispatch
# ----------------------------------------------------------------------

_HOOK_MACHINES = [
    cray_like_machine,
    lambda: InOrderMultiIssueMachine(4),
    lambda: OutOfOrderMultiIssueMachine(2),
    lambda: RUUMachine(2, 10),
    lambda: build_simulator("spec:20:2bit"),
    TomasuloMachine,
    CDC6600Machine,
]
_HOOK_IDS = [
    "scoreboard", "inorder", "ooo", "ruu", "spec", "tomasulo", "cdc6600",
]


@pytest.mark.parametrize("make_machine", _HOOK_MACHINES, ids=_HOOK_IDS)
def test_simulate_observed_forces_reference(make_machine):
    """simulate_observed must never run the event-free fast path, also
    on a machine that has already run fast."""
    machine = make_machine()
    trace, config = TRACES[4], M11BR5
    baseline = machine.simulate(trace, config)

    collector = EventCollector()
    fastpath.reset_stats()
    observed = machine.simulate_observed(trace, config, collector)
    assert fastpath.stats()["fast_runs"] == 0
    assert collector.events
    assert observed.cycles == baseline.cycles

    # The observed run leaves nothing behind: the next call is fast.
    fastpath.reset_stats()
    machine.simulate(trace, config)
    assert fastpath.stats()["fast_runs"] == 1
