"""The sweep's contract: bit-identical, correctly attributed.

Three layers of tests for :func:`repro.core.fastpath.simulate_sweep`,
which dispatches each member to its family's compiled loop and replays
the RUU members together under the RUU size rule:

* **Differential sweep** -- every fuzzed trace replayed through the full
  oracle machine set as one sweep must agree with each member's own
  per-spec replay *and* the reference loops on cycles, issue rates and
  (for the fast-path machines) the per-instruction issue/completion
  schedule.
* **Broken-sweep detection** -- a sweep replaying under mutated
  latencies must be caught by the oracle's ``fastpath-dual`` check: the
  differential layers are what make the sweep safe to trust, so this
  pins that they actually fire.
* **Gating and stats** -- the run counters have a stable key set,
  ``set_enabled(False)`` forces the reference loops uniformly, and
  every fast run is attributed to the loop that served it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import M5BR2, M5BR5, M11BR2, M11BR5, fastpath
from repro.core.registry import build_simulator
from repro.obs.events import EventCollector, EventKind
from repro.verify.fuzz import FuzzSpec, fuzz_trace
from repro.verify.oracle import DEFAULT_ORACLE_MACHINES, run_oracle

CONFIGS = (M11BR5, M11BR2, M5BR5, M5BR2)

N_SEEDS = 300

#: One shared trace pool, distinct seeds from test_fastpath_diff's.
_SHAPE = FuzzSpec()
TRACES = tuple(
    fuzz_trace(50_000 + seed, _SHAPE) for seed in range(N_SEEDS)
)


@pytest.fixture(autouse=True)
def _fastpath_on():
    previous = fastpath.set_enabled(True)
    yield
    fastpath.set_enabled(previous)


def _oracle_simulators():
    return [(spec, build_simulator(spec)) for spec in DEFAULT_ORACLE_MACHINES]


def _perspec(trace, items):
    """Each sweep member replayed on its own: the compiled loop its
    ``simulate`` dispatches to (``FAMILY_LOOPS``), filling the member's
    schedule record; members the gate sends to the reference loop run
    their own ``simulate``."""
    results = []
    for item in items:
        if not isinstance(item, fastpath.SweepItem):
            item = fastpath.SweepItem(*item)
        if fastpath.fast_eligible(item.simulator):
            loop = fastpath.python_backend.FAMILY_LOOPS[
                fastpath.family_of(item.simulator)
            ]
            results.append(
                loop(item.simulator, trace, item.config, item.record)
            )
        else:
            results.append(item.simulator.simulate(trace, item.config))
    return results


# ----------------------------------------------------------------------
# The three-way differential sweep
# ----------------------------------------------------------------------

def test_batch_matches_perspec_and_reference_over_oracle_set():
    """300 fuzzed traces x the full oracle machine set (the speculative
    family included): sweep == per-spec fast == reference on cycles,
    rates and instruction counts."""
    machines = _oracle_simulators()
    items = [(sim, None) for _, sim in machines]
    for seed, trace in enumerate(TRACES):
        config = CONFIGS[seed % len(CONFIGS)]
        bound = [(sim, config) for sim, _ in items]
        batch = fastpath.simulate_sweep(trace, bound)
        perspec = _perspec(trace, bound)
        for (spec, sim), b, p in zip(machines, batch, perspec):
            reference = getattr(sim, "reference_simulate", sim.simulate)
            ref = reference(trace, config)
            context = (spec, trace.name, config.name)
            assert b.cycles == p.cycles == ref.cycles, context
            assert b.issue_rate == p.issue_rate == ref.issue_rate, context
            assert (
                b.instructions == p.instructions == ref.instructions
            ), context


def test_batch_schedules_match_perspec_over_oracle_set():
    """Per-instruction (issue, complete) pairs from the sweep equal the
    per-spec fast loops' on every fast-path oracle member."""
    machines = [
        (spec, sim)
        for spec, sim in _oracle_simulators()
        if fastpath.fast_eligible(sim)
    ]
    assert len(machines) >= 12  # the oracle set is mostly fast-path
    for seed, trace in enumerate(TRACES):
        config = CONFIGS[seed % len(CONFIGS)]
        batch_records = [[] for _ in machines]
        perspec_records = [[] for _ in machines]
        fastpath.simulate_sweep(
            trace,
            [
                fastpath.SweepItem(sim, config, record)
                for (_, sim), record in zip(machines, batch_records)
            ],
        )
        _perspec(
            trace,
            [
                fastpath.SweepItem(sim, config, record)
                for (_, sim), record in zip(machines, perspec_records)
            ],
        )
        for (spec, _), b, p in zip(machines, batch_records, perspec_records):
            assert len(b) == len(trace)
            assert b == p, (spec, trace.name, config.name)


@pytest.mark.parametrize("spec", ("cray", "ooo:4", "ruu:2:50", "cdc6600"))
def test_batch_schedule_matches_reference_events(spec):
    """Spot-check the sweep schedules against the reference loops' event
    streams directly (the per-spec equivalence above plus
    test_fastpath_diff covers the rest of the cross product)."""
    simulator = build_simulator(spec)
    for trace in TRACES[:30]:
        record = []
        fastpath.simulate_sweep(
            trace,
            [fastpath.SweepItem(simulator, M11BR5, record)],
        )
        collector = EventCollector()
        simulator.simulate_observed(trace, M11BR5, collector)
        issues = collector.cycles_by_seq(EventKind.ISSUE)
        completes = collector.cycles_by_seq(EventKind.COMPLETE)
        expected = [
            (
                issues[entry.seq],
                completes.get(
                    entry.seq, issues[entry.seq] + M11BR5.branch_latency
                ),
            )
            for entry in trace.entries
        ]
        assert record == expected, (spec, trace.name)


def test_table5_style_sweep_is_bit_identical_across_configs():
    """The acceptance shape: one ooo:4 machine, all four configs, one
    trace, one sweep -- identical to four reference replays."""
    simulator = build_simulator("ooo:4")
    for trace in TRACES[:50]:
        results = fastpath.simulate_sweep(
            trace,
            [(simulator, config) for config in CONFIGS],
        )
        for config, result in zip(CONFIGS, results):
            ref = simulator.reference_simulate(trace, config)
            assert result.cycles == ref.cycles, (trace.name, config.name)


# ----------------------------------------------------------------------
# Speculative family through the sweep
# ----------------------------------------------------------------------
#
# Spec sweep members are served by their per-spec compiled loop inside
# the sweep call.  The contract is full bit-identity --
# cycles, rates, schedules and tlm.* telemetry -- against both the
# per-spec fast loop and the reference.

from repro.obs.telemetry import strip_telemetry

#: Predictor grid x option variants, replayed as one sweep per trace.
SPEC_SWEEP_SPECS = (
    "spec:50:none",
    "spec:50:always",
    "spec:50:btfn",
    "spec:50:1bit",
    "spec:50:2bit",
    "spec:50:perfect",
    "spec:50:wrong",
    "spec:8:2bit",
    "spec:50:2bit:rp=8",
    "spec:50:2bit:vp=last",
    "spec:50:wrong:rp=5:vp=last",
)


def test_batch_serves_spec_grid_bit_identically():
    """Predictor grid: one sweep per trace must match the per-spec
    loops and the reference on cycles, rates, detail (telemetry
    included) and per-instruction schedules."""
    machines = [(spec, build_simulator(spec)) for spec in SPEC_SWEEP_SPECS]
    for seed in range(0, N_SEEDS, 4):
        trace = TRACES[seed]
        config = CONFIGS[seed % len(CONFIGS)]
        batch_records = [[] for _ in machines]
        perspec_records = [[] for _ in machines]
        batch = fastpath.simulate_sweep(
            trace,
            [
                fastpath.SweepItem(sim, config, record)
                for (_, sim), record in zip(machines, batch_records)
            ],
        )
        perspec = _perspec(
            trace,
            [
                fastpath.SweepItem(sim, config, record)
                for (_, sim), record in zip(machines, perspec_records)
            ],
        )
        for (spec, sim), b, p, br, pr in zip(
            machines, batch, perspec, batch_records, perspec_records
        ):
            ref = sim.reference_simulate(trace, config)
            context = (spec, trace.name, config.name)
            assert b.cycles == p.cycles == ref.cycles, context
            assert b.issue_rate == p.issue_rate == ref.issue_rate, context
            assert b.instructions == p.instructions == ref.instructions, (
                context
            )
            # Identical telemetry from both routes, and the
            # non-telemetry detail matches the reference exactly.
            assert dict(b.detail or {}) == dict(p.detail or {}), context
            assert strip_telemetry(b.detail) == dict(ref.detail or {}), (
                context
            )
            assert len(br) == len(trace), context
            assert br == pr, context


@pytest.mark.parametrize(
    "specs",
    (SPEC_SWEEP_SPECS[:4], ("cray",), ("cdc6600",),
     ("inorder:2", "inorder:2:1bus")),
    ids=("spec", "cray", "cdc6600", "inorder:2"),
)
def test_spec_sweep_members_counted_as_batch_fallbacks(specs):
    """Members of every family but the RUU (spec, scoreboard, cdc6600,
    in-order) are served by their per-spec loop inside the sweep: each
    counts as one ``python.fast_runs`` and none is ever reused."""
    items = [
        (build_simulator(spec), config)
        for spec in specs
        for config in (M11BR5, M5BR2)
    ]
    fastpath.reset_stats()
    batch = fastpath.simulate_sweep(TRACES[7], items)
    stats = fastpath.stats()
    assert stats["python.fast_runs"] == len(items)
    assert stats["python.reused_runs"] == 0
    perspec = _perspec(TRACES[7], items)
    assert [r.cycles for r in batch] == [r.cycles for r in perspec]


# ----------------------------------------------------------------------
# RUU grid through the sweep: one loop, reused never-full runs
# ----------------------------------------------------------------------
#
# The RUU size rule replays members through the same loop as the
# per-spec path, largest RUU first per timing class, and copies a run
# to every smaller RUU its peak occupancy still fits.  The contract is
# unchanged: cycles, detail (telemetry included) and schedules equal the
# per-spec loop's, and the non-telemetry detail equals the reference's.

from repro.core.buses import BusKind
from repro.core.ruu import RUUMachine
from repro.isa import A0


def _ruu_grid():
    """A Table 7-shaped grid plus the knobs the spec grammar cannot
    reach (no bypass, ordered memory), with duplicate and tiny sizes."""
    machines = [
        RUUMachine(units, size, bus)
        for units in (1, 2, 4)
        for size in (100, 50, 10, 4, 1)
        for bus in (BusKind.N_BUS, BusKind.ONE_BUS)
    ]
    machines += [
        RUUMachine(2, size, bypass=False) for size in (50, 8)
    ] + [
        RUUMachine(2, size, ordered_memory=True) for size in (50, 8)
    ] + [
        RUUMachine(4, size, fu_copies=2) for size in (100, 30)
    ] + [RUUMachine(4, 50), RUUMachine(4, 50)]
    return machines


def _ruu_traces():
    kernels = [trace_source(f"kernel:{loop}:n=16") for loop in (1, 5, 7, 11)]
    return kernels + list(TRACES[:12])


def test_ruu_grid_batch_matches_perspec_and_reference():
    machines = _ruu_grid()
    for index, trace in enumerate(_ruu_traces()):
        config = CONFIGS[index % len(CONFIGS)]
        batch_records = [[] for _ in machines]
        perspec_records = [[] for _ in machines]
        batch = fastpath.simulate_sweep(
            trace,
            [
                fastpath.SweepItem(machine, config, record)
                for machine, record in zip(machines, batch_records)
            ],
        )
        perspec = _perspec(
            trace,
            [
                fastpath.SweepItem(machine, config, record)
                for machine, record in zip(machines, perspec_records)
            ],
        )
        for machine, b, p, br, pr in zip(
            machines, batch, perspec, batch_records, perspec_records
        ):
            context = (machine.name, trace.name, config.name)
            ref = machine.reference_simulate(trace, config)
            assert b.simulator == p.simulator == machine.name, context
            assert b.cycles == p.cycles == ref.cycles, context
            assert dict(b.detail) == dict(p.detail), context
            assert strip_telemetry(b.detail) == dict(ref.detail), context
            assert br == pr and len(br) == len(trace), context


def test_ruu_never_full_runs_are_reused_and_full_ones_are_not():
    """Around the peak occupancy P of an unbounded replay: sizes above P
    reuse it, size P (the RUU fills there) replays afresh, and every
    answer still equals a per-spec replay."""
    trace = trace_source("kernel:5:n=16")
    compiled = fastpath.compile_trace(trace)
    peak = fastpath.python_backend.ruu_replay(
        compiled, RUUMachine(2, 10_000), M11BR5
    ).peak
    assert peak > 2
    sizes = (10_000, peak + 1, peak, peak - 1)
    machines = [RUUMachine(2, size) for size in sizes]
    fastpath.reset_stats()
    batch = fastpath.simulate_sweep(
        trace, [(machine, M11BR5) for machine in machines]
    )
    stats = fastpath.stats()
    assert stats["python.fast_runs"] == len(machines)
    assert stats["python.reused_runs"] == 1  # only peak + 1
    for machine, result in zip(machines, batch):
        alone = machine.simulate(trace, M11BR5)
        assert (result.cycles, result.detail) == (alone.cycles, alone.detail)


def test_table7_reuses_an_exact_count_of_ruu_replays():
    """Table 7 at ``SMALL_SIZES`` is one sweep per kernel trace of its
    192-member RUU grid, and the RUU size rule serves 396 of the 960
    runs from another member's never-full replay.  The count repeats
    exactly on any host, where the sweep-over-per-spec speed ratio it
    buys (``repro bench``'s ``sweep.table7.speedup``) moves with load."""
    from repro.harness.engine import run_plan
    from repro.harness.plans import build_plan
    from repro.kernels import SMALL_SIZES

    fastpath.reset_stats()
    run_plan(build_plan("table7", SMALL_SIZES), workers=1, cache=None)
    stats = fastpath.stats()
    assert stats["python.fast_runs"] == 960
    assert stats["python.reused_runs"] == 396


def test_ruu_plan_resolves_register_instances():
    """The rename plan names producers by seq: a source reads the latest
    earlier non-branch write of its register, initial contents drop out,
    and conditional branches wait on A0's latest writer."""
    trace = TRACES[0]
    compiled = fastpath.compile_trace(trace)
    units, producers, consumers, branch_wait, ring = (
        fastpath.python_backend.ruu_plan(compiled)
    )
    writer = {}
    for seq, entry in enumerate(trace.entries):
        instr = entry.instruction
        assert units[seq] == compiled.ops[seq][0]
        if instr.is_branch:
            assert seq not in ring
            if instr.is_conditional_branch:
                assert branch_wait[seq] == writer.get(A0, -1)
            else:
                assert branch_wait[seq] == -1
            continue
        expected = []
        for reg in instr.source_registers:
            producer = writer.get(reg, -1)
            if producer >= 0 and producer not in expected:
                expected.append(producer)
        assert producers[seq] == tuple(expected)
        for producer in expected:
            assert seq in consumers[producer]
        if instr.dest is not None:
            writer[instr.dest] = seq
    assert list(ring) == sorted(ring)


# ----------------------------------------------------------------------
# Per-trace plans: memoised on the compiled trace, dying with it
# ----------------------------------------------------------------------

def _holders(value):
    """Everything but stack frames that still references *value*."""
    import gc
    import types

    gc.collect()
    return [
        holder for holder in gc.get_referrers(value)
        if not isinstance(holder, types.FrameType)
    ]


def test_plans_die_with_their_trace():
    """Once the trace (and so its compilation) is gone, nothing holds its
    RUU or out-of-order plan any more.  The plans are a tuple and a list,
    which take no weak references, so the check is on their referrers."""
    trace = fuzz_trace(60_000, _SHAPE)
    ruu = fastpath.python_backend.ruu_plan(fastpath.compile_trace(trace))
    ooo = fastpath.python_backend._ooo_plan(
        fastpath.compile_trace(trace), 4, True
    )
    assert _holders(ruu) and _holders(ooo)  # the compiled trace's memo
    del trace
    assert _holders(ruu) == []
    assert _holders(ooo) == []


def test_alternating_replays_build_each_plan_once():
    """Per-spec replays of ``ruu:2:50`` and ``ooo:4`` alternating over two
    traces get the same plan objects back on every call."""
    backend = fastpath.python_backend
    ruu, ooo = build_simulator("ruu:2:50"), build_simulator("ooo:4")

    def plans(trace):
        compiled = fastpath.compile_trace(trace)
        return (
            backend.ruu_plan(compiled),
            backend._ooo_plan(compiled, ooo.issue_units, ooo.enforce_war),
        )

    first = {}
    for _ in range(3):
        for index in (3, 4):
            trace = TRACES[index]
            ruu.simulate(trace, M11BR5)
            ooo.simulate(trace, M11BR5)
            built = first.setdefault(index, plans(trace))
            assert all(a is b for a, b in zip(plans(trace), built))


# ----------------------------------------------------------------------
# Registry-sourced workload families through the sweep
# ----------------------------------------------------------------------

from repro.trace.sources import trace_source

#: Scalar registry families (mixed is vector-only: no scalar machines).
FAMILY_SPECS = (
    "branchy:n=96",
    "pointer:n=96:chains=2",
    "fuzz:branchy",
    "fuzz:pointer",
    "fuzz:parallel",
    "synthetic:stride:n=12",
    "synthetic:deep:n=10",
    "synthetic:wide:n=10",
)


def _family_traces(seeds):
    return [
        trace_source(f"{template}:seed={seed}")
        for template in FAMILY_SPECS
        for seed in seeds
    ]


def _batch_agrees_on(trace, config):
    machines = _oracle_simulators()
    bound = [(sim, config) for _, sim in machines]
    batch = fastpath.simulate_sweep(trace, bound)
    perspec = _perspec(trace, bound)
    for (spec, sim), b, p in zip(machines, batch, perspec):
        reference = getattr(sim, "reference_simulate", sim.simulate)
        ref = reference(trace, config)
        context = (spec, trace.name, config.name)
        assert b.cycles == p.cycles == ref.cycles, context
        assert b.issue_rate == p.issue_rate == ref.issue_rate, context
        assert b.instructions == p.instructions == ref.instructions, context


@pytest.mark.sources
def test_batch_matches_reference_on_registry_families():
    """Fast subset: each family through the full oracle set as a sweep."""
    for index, trace in enumerate(_family_traces(range(2))):
        _batch_agrees_on(trace, CONFIGS[index % len(CONFIGS)])


@pytest.mark.sources
@pytest.mark.slow
def test_batch_matches_reference_on_registry_families_full_matrix():
    """Nightly: the full family x seed x config sweep matrix."""
    for trace in _family_traces(range(20)):
        for config in CONFIGS:
            _batch_agrees_on(trace, config)


@pytest.mark.sources
def test_batch_schedules_match_perspec_on_registry_families():
    """Per-instruction schedules from the sweep equal the
    per-spec fast loops' on every family, not just the default fuzz."""
    machines = [
        (spec, sim)
        for spec, sim in _oracle_simulators()
        if fastpath.fast_eligible(sim)
    ]
    for trace in _family_traces(range(2)):
        batch_records = [[] for _ in machines]
        perspec_records = [[] for _ in machines]
        for replay, records in (
            (fastpath.simulate_sweep, batch_records),
            (_perspec, perspec_records),
        ):
            replay(
                trace,
                [
                    fastpath.SweepItem(sim, M11BR5, record)
                    for (_, sim), record in zip(machines, records)
                ],
            )
        for (spec, _), b, p in zip(machines, batch_records, perspec_records):
            assert len(b) == len(trace)
            assert b == p, (spec, trace.name)


# ----------------------------------------------------------------------
# A broken sweep is caught
# ----------------------------------------------------------------------

def test_oracle_catches_mutated_latency_batch_backend(monkeypatch):
    """The fastpath-dual check must flag a sweep whose replays drift
    from the reference loops -- the safety net behind every sweep."""
    real = fastpath.simulate_sweep

    def mutated(trace, items):
        # Every sweep member (the oracle passes tuples) replays under a
        # memory latency one cycle higher than asked.
        return real(trace, [
            (
                simulator,
                replace(config, memory_latency=config.memory_latency + 1),
                record,
            )
            for simulator, config, record in items
        ])

    monkeypatch.setattr(fastpath, "simulate_sweep", mutated)
    report = run_oracle(TRACES[0], M11BR5)
    duals = [v for v in report.violations if v.check == "fastpath-dual"]
    assert duals, "mutated-latency sweep went undetected"
    # And with the real sweep restored the same replay is clean.
    monkeypatch.undo()
    assert run_oracle(TRACES[0], M11BR5).ok


def test_oracle_routes_replays_through_batch_sweeps(monkeypatch):
    """One oracle replay is one sweep: every machine with a compiled loop
    is a member, and the simple machine (no compiled loop) runs its
    reference outside it."""
    real = fastpath.simulate_sweep
    sweeps = []

    def counted(trace, items):
        sweeps.append(len(items))
        return real(trace, items)

    monkeypatch.setattr(fastpath, "simulate_sweep", counted)
    fastpath.reset_stats()
    report = run_oracle(TRACES[1], M11BR5)
    assert report.ok
    eligible = [spec for spec in DEFAULT_ORACLE_MACHINES if spec != "simple"]
    assert sweeps == [len(eligible)]
    assert fastpath.stats()["python.fast_runs"] == len(eligible)


# ----------------------------------------------------------------------
# Gating, stats
# ----------------------------------------------------------------------

class TestRunCounters:
    def test_counter_keys_are_stable(self):
        """Every run counter is present, at zero, after a reset -- the
        engine and the layer benchmark diff snapshots by key."""
        fastpath.reset_stats()
        stats = fastpath.stats()
        for key in (
            "fast_runs",
            "python.fast_runs",
            "python.reused_runs",
            "python.skipped_instructions",
        ):
            assert stats[key] == 0, key


class TestGatingAndStats:
    def test_disabled_fastpath_serves_sweeps_from_reference(self):
        simulator = build_simulator("ooo:2")
        enabled = fastpath.simulate_sweep(
            TRACES[2], [(simulator, M11BR5)]
        )[0]
        previous = fastpath.set_enabled(False)
        try:
            fastpath.reset_stats()
            disabled = fastpath.simulate_sweep(
                TRACES[2], [(simulator, M11BR5)]
            )[0]
            assert fastpath.stats()["fast_runs"] == 0
        finally:
            fastpath.set_enabled(previous)
        assert disabled.cycles == enabled.cycles

    def test_fast_runs_attributed_per_backend(self):
        """A machine's own ``simulate`` and a sweep member run the same
        compiled loop, so each counts as one ``python.fast_runs``, and
        the flat ``fast_runs`` key repeats it."""
        simulator = build_simulator("ooo:2")
        fastpath.reset_stats()
        simulator.simulate(TRACES[4], M11BR5)
        assert fastpath.stats()["python.fast_runs"] == 1
        fastpath.simulate_sweep(TRACES[4], [(simulator, M11BR5)])
        stats = fastpath.stats()
        assert stats["python.fast_runs"] == 2
        assert stats["python.reused_runs"] == 0
        assert stats["fast_runs"] == stats["python.fast_runs"]

    def test_no_fast_path_machine_falls_back_inside_batch(self):
        """A machine without a compiled loop (the simple machine) runs
        its own ``simulate``, even as a sweep member."""
        simple = build_simulator("simple")
        fastpath.reset_stats()
        result = fastpath.simulate_sweep(TRACES[5], [(simple, M11BR5)])[0]
        assert result.cycles == simple.simulate(TRACES[5], M11BR5).cycles
        assert fastpath.stats()["fast_runs"] == 0
