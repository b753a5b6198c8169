"""The steady-state fast-forward of the RUU, out-of-order, in-order,
scoreboard and speculative loops.

``compile_trace`` marks the periodic regions of a trace (one loop body
repeated), and :func:`~repro.core.fastpath.python_backend.ruu_replay`,
:func:`~repro.core.fastpath.python_backend.simulate_ooo_fast`,
:func:`~repro.core.fastpath.python_backend.simulate_inorder_fast`,
:func:`~repro.core.fastpath.python_backend.simulate_scoreboard_fast` and
:func:`~repro.core.fastpath.python_backend.simulate_spec_fast` credit
every whole period after the first repeated state in closed form (the
speculative loop only where its predictor outcomes repeat too).  The
skip path must be invisible on traces that are mostly periodic -- the
Livermore kernels and fuzzed bodies repeated many times: cycles, rates,
``detail`` and the per-instruction schedule equal the reference loops',
and the whole replay (``tlm.*`` telemetry, the accuracies and the RUU
peak included) equals the same loop's replay of the trace with its
regions dropped.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import M5BR2, M5BR5, M11BR2, M11BR5, fastpath
from repro.core.fastpath import compile_trace
from repro.core.fastpath.ir import fetch_buffers
from repro.core.fastpath import python_backend
from repro.core.fastpath.python_backend import (
    FAMILY_LOOPS,
    ruu_replay,
    spec_outcomes,
)
from repro.core.ooo_multi import OutOfOrderMultiIssueMachine
from repro.core.registry import build_simulator
from repro.core.ruu import RUUMachine
from repro.isa import A, S, V, Instruction, Opcode
from repro.kernels import DEFAULT_SIZES, SMALL_SIZES
from repro.kernels.vectorized import VECTORIZED_LOOPS
from repro.trace import Trace, TraceEntry, write_trace
from repro.trace.generator import assemble_trace
from repro.trace.sources import trace_source
from repro.verify.fuzz import FuzzSpec, fuzz_trace

from helpers import aadd, fmul, frecip, jan, loads
from test_fastpath_diff import (
    _assert_fast_matches_reference,
    _assert_spec_matches_reference,
)

CONFIGS = (M11BR5, M11BR2, M5BR5, M5BR2)

#: The skip-path matrix: RUU sizes below, at and above a body's live
#: window, one- and N-bus, the out-of-order drains (single-slot, scan,
#: shared bus, crossbar, no WAR), in-order widths and bus wirings, the
#: scoreboard machines (result bus, chaining, unpipelined units, serial
#: memory), and the speculative machines (every predictor kind, a
#: recovery penalty, both value predictors, one commit bus, a small
#: single-issue window).
SPECS = (
    "ruu:1:1",
    "ruu:2:10",
    "ruu:4:50",
    "ruu:4:50:1bus",
    "ruu:4:100",
    "ooo:1",
    "ooo:4",
    "ooo:4:1bus",
    "ooo:4:xbar",
    "inorder:1",
    "inorder:4",
    "inorder:4:1bus",
    "inorder:4:xbar",
    "inorder:8",
    "cray",
    "cray-unchained",
    "serialmemory",
    "nonsegmented",
    "spec:50:none",
    "spec:50:btfn",
    "spec:50:1bit:rp=4",
    "spec:50:2bit",
    "spec:50:2bit:vp=last",
    "spec:50:2bit:vp=stride",
    "spec:50:2bit:bus=1bus",
    "spec:50:perfect",
    "spec:50:wrong",
    "spec:8:2bit:units=1",
)

#: The scoreboard machines, which also issue vector code.
SCOREBOARD_SPECS = ("cray", "cray-unchained", "serialmemory", "nonsegmented")


def _machines():
    for spec in SPECS:
        yield spec, build_simulator(spec)
    yield "ruu:2:30:fu=2", build_simulator("ruu:2:30:fu=2")
    yield "ruu:4:50:ordered", RUUMachine(
        4, 50, ordered_memory=True, bypass=False
    )
    yield "ooo:4:nowar", OutOfOrderMultiIssueMachine(4, enforce_war=False)


MACHINES = tuple(_machines())
MACHINE_IDS = [name for name, _ in MACHINES]


@pytest.fixture(autouse=True)
def _fastpath_on():
    """Pin fast-path auto-selection on (REPRO_FASTPATH=0 environments)."""
    previous = fastpath.set_enabled(True)
    yield
    fastpath.set_enabled(previous)


def _assert_matches(simulator, trace, config, context):
    """The reference contract, plus: skipping changes nothing at all."""
    family = fastpath.family_of(simulator)
    if family == "spec":
        _assert_spec_matches_reference(simulator, trace, config, context)
    else:
        _assert_fast_matches_reference(simulator, trace, config, context)
    compiled = compile_trace(trace)
    flat = replace(compiled, regions=())
    if family == "ruu":
        skipped = ruu_replay(compiled, simulator, config, tracking=True)
        replayed = ruu_replay(flat, simulator, config, tracking=True)
        assert skipped == replayed, context
        return
    schedules = ([], [])
    loop = FAMILY_LOOPS[family]
    skipped = loop(simulator, trace, config, schedules[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(python_backend, "compile_trace", lambda _: flat)
        replayed = loop(simulator, trace, config, schedules[1])
    assert skipped.cycles == replayed.cycles, context
    assert skipped.detail == replayed.detail, context
    assert schedules[0] == schedules[1], context


def _kernel(loop: int, sizes=SMALL_SIZES):
    return trace_source(f"kernel:{loop}:n={sizes[loop]}")


def _closing_branch(static_index: int, taken: bool = True) -> TraceEntry:
    instruction, taken = jan(taken)
    return TraceEntry(
        seq=0, static_index=static_index, instruction=instruction,
        taken=taken,
    )


def _entries(*items):
    """Hand-built entries, static index = position: instructions, or
    ``(instruction, vector length)`` pairs."""
    entries = []
    for index, item in enumerate(items):
        instruction, length = item if isinstance(item, tuple) else (item, None)
        entries.append(TraceEntry(
            seq=0, static_index=index, instruction=instruction,
            vector_length=length,
        ))
    return entries


def _repeated(body, times: int, *, prefix=(), suffix=(), name="periodic"):
    """*body* entries ``times`` times over (static indices kept, so the
    period scan sees one loop), between optional *prefix* and *suffix*."""
    return assemble_trace(
        list(prefix) + list(body) * times + list(suffix), name=name
    )


def _fuzzed_body(seed: int, length: int = 12):
    """A fuzzed loop body closed by a taken backward branch."""
    entries = fuzz_trace(seed, FuzzSpec(length=length)).entries
    return list(entries) + [_closing_branch(length)]


def _shifted(entries, offset: int):
    """*entries* under static indices disjoint from a body's."""
    return [
        TraceEntry(
            seq=0, static_index=entry.static_index + offset,
            instruction=entry.instruction, taken=entry.taken,
            address=entry.address, backward=entry.backward,
            vector_length=entry.vector_length,
        )
        for entry in entries
    ]


# ----------------------------------------------------------------------
# The period scan
# ----------------------------------------------------------------------

def test_kernel1_is_one_region_of_period_12():
    compiled = compile_trace(_kernel(1))
    assert len(compiled.regions) == 1
    start, period, end = compiled.regions[0]
    assert period == 12
    assert end - start >= 4 * period


@pytest.mark.parametrize("loop", (2, 14))
def test_nested_loops_have_one_region_per_inner_loop(loop):
    compiled = compile_trace(_kernel(loop, DEFAULT_SIZES))
    assert len(compiled.regions) > 1
    previous_end = 0
    for start, period, end in compiled.regions:
        assert previous_end <= start < end <= compiled.n
        assert end - start >= 4 * period
        ops = compiled.ops
        assert all(
            ops[seq] == ops[seq - period]
            for seq in range(start + period, end)
        )
        previous_end = end


@pytest.mark.parametrize(
    "trace",
    (
        fuzz_trace(3, FuzzSpec(length=400)),
        trace_source("branchy:seed=1:n=2000"),
    ),
    ids=("fuzz", "branchy"),
)
def test_generated_traces_have_no_regions(trace):
    assert compile_trace(trace).regions == ()


def test_region_starts_after_the_taken_branch():
    body = _fuzzed_body(5)
    prefix = _shifted(fuzz_trace(6, FuzzSpec(length=7)).entries, 1000)
    compiled = compile_trace(_repeated(body, 9, prefix=prefix))
    [(start, period, end)] = compiled.regions
    assert period == len(body)
    # The first body's branch is the region's first taken one.
    assert compiled.ops[start - 1][3] and compiled.ops[start - 1][4]
    assert end == compiled.n


# ----------------------------------------------------------------------
# Per-compile memos: shared Instruction objects, shared buffer decodes
# ----------------------------------------------------------------------

def _with_copied_instructions(trace):
    """*trace* with every entry's Instruction an equal, distinct copy."""
    return Trace(trace.name, tuple(
        replace(entry, instruction=replace(entry.instruction))
        for entry in trace.entries
    ))


def _compile_sources(tmp_path):
    """Kernels (scalar and vector), a fuzz pool, and a ``file:`` round
    trip of a kernel, whose read-back entries share Instructions."""
    for loop in range(1, 15):
        yield trace_source(f"kernel:{loop}:n={SMALL_SIZES[loop]}")
    for loop in VECTORIZED_LOOPS:
        yield trace_source(f"kernel:{loop}:n=64:vector=on")
    for seed in range(40):
        yield fuzz_trace(seed, FuzzSpec(length=120))
    path = tmp_path / "loop5.jsonl"
    write_trace(_kernel(5), path)
    yield trace_source(f"file:{path}")


def test_compile_resolves_shared_instructions_like_copies(tmp_path):
    """``compile_trace`` resolves each Instruction object once per call;
    a trace whose entries share objects compiles exactly like the same
    trace with every entry's Instruction copied."""
    shared = 0
    for trace in _compile_sources(tmp_path):
        copy = _with_copied_instructions(trace)
        assert len({id(e.instruction) for e in copy}) == len(copy)
        shared += len({id(e.instruction) for e in trace}) < len(trace)
        assert compile_trace(trace) == compile_trace(copy), trace.name
    assert shared >= 15  # the kernels and the archive take the memo


@pytest.mark.parametrize("enforce_war", (True, False))
def test_ooo_plan_records_equal_fresh_decodes(enforce_war):
    """Every out-of-order plan record equals a decode of its own buffer,
    though buffers with equal ops share one decode."""
    for loop in range(1, 15):
        compiled = compile_trace(_kernel(loop))
        for units in range(1, 9):
            plan = python_backend._ooo_plan(compiled, units, enforce_war)
            starts, lengths = fetch_buffers(compiled, units)
            assert [record[0] for record in plan] == list(starts)
            for (pos, *record), blen in zip(plan, lengths):
                window = compiled.ops[pos:pos + blen]
                fresh = python_backend._ooo_decode(window, enforce_war)
                assert tuple(record) == fresh, (loop, units, pos)
            payloads = {id(record[2]) for record in plan}
            assert len(payloads) < len(plan), (loop, units)


# ----------------------------------------------------------------------
# Differential: the skip path is bit-identical
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name,simulator", MACHINES, ids=MACHINE_IDS)
def test_kernels_match_reference(name, simulator):
    for loop in range(1, 15):
        trace = _kernel(loop)
        for config in CONFIGS:
            _assert_matches(
                simulator, trace, config, (name, loop, config.name)
            )


@pytest.mark.parametrize("spec", SCOREBOARD_SPECS)
def test_vector_kernels_match_reference(spec):
    """Vector bodies: chaining, vector lengths and unit reservations
    that outlive a body, at a size where each kernel has a region."""
    simulator = build_simulator(spec)
    for loop in VECTORIZED_LOOPS:
        trace = trace_source(f"kernel:{loop}:n=1000:vector=on")
        assert compile_trace(trace).regions, loop
        for config in CONFIGS:
            _assert_matches(
                simulator, trace, config, (spec, loop, config.name)
            )


@pytest.mark.parametrize("name,simulator", MACHINES, ids=MACHINE_IDS)
def test_repeated_fuzzed_bodies_match_reference(name, simulator):
    for seed in range(6):
        body = _fuzzed_body(seed, length=6 + 3 * seed)
        prefix = _shifted(fuzz_trace(100 + seed).entries[:10], 1000)
        suffix = _shifted(fuzz_trace(200 + seed).entries[:10], 2000)
        for times in (5, 13, 40):
            trace = _repeated(body, times, prefix=prefix, suffix=suffix)
            config = CONFIGS[(seed + times) % len(CONFIGS)]
            _assert_matches(
                simulator, trace, config, (name, seed, times, config.name)
            )


def _recurrence_body():
    """Six ops whose loop-carried reciprocal chain fills any RUU: the
    live window spans many bodies, so a jump can be shorter than it."""
    return [
        TraceEntry(seq=0, static_index=index, instruction=item)
        for index, item in enumerate(
            (frecip(2, 1), fmul(1, 2, 3), loads(4, 1), aadd(1, 1),
             aadd(0, 0, -1))
        )
    ] + [_closing_branch(5)]


@pytest.mark.parametrize("times", (12, 20, 30, 45))
def test_jump_shorter_than_the_live_window(times):
    """The live state is copied youngest-first, so a jump that overlaps
    its own window reads every source before overwriting it."""
    simulator = build_simulator("ruu:4:100")
    trace = _repeated(_recurrence_body(), times)
    for config in CONFIGS:
        _assert_matches(
            simulator, trace, config, (times, config.name)
        )


def _slow_tail_body():
    """Five ops whose slowest result is the body's last: a trace that
    stops a few ops into the next body finishes on a skipped event."""
    return [
        TraceEntry(seq=0, static_index=index, instruction=item)
        for index, item in enumerate(
            (aadd(1, 1), loads(4, 1), aadd(0, 0, -1), frecip(2, 4))
        )
    ] + [_closing_branch(4)]


@pytest.mark.parametrize("name,simulator", MACHINES, ids=MACHINE_IDS)
def test_trace_ending_with_its_region(name, simulator):
    """Little runs after the last skipped period, so the finish time
    comes from the shifted branch resolution or last event."""
    traces = [_repeated(_fuzzed_body(seed, length=8), 30) for seed in range(3)]
    body = _slow_tail_body()
    traces += [
        _repeated(body, times, suffix=body[:extra])
        for times in (7, 10) for extra in (1, 2, 3)
    ]
    for trace in traces:
        assert compile_trace(trace).regions[-1][2] == len(trace)
        for config in CONFIGS:
            _assert_matches(
                simulator, trace, config, (name, len(trace), config.name)
            )


# ----------------------------------------------------------------------
# Key fields a repeated body must not hide
# ----------------------------------------------------------------------

def test_inorder_key_holds_the_open_issue_run():
    """The region's first fetch buffer waits for a late address
    register and ends in a lone store; every later one ends in a store
    issued with the PASS before it.  Nothing but the open issue-width
    run tells the boundary after the first buffer from the later ones,
    so a key without it credits the wrong issue-width histogram."""
    prefix = _shifted(_entries(
        Instruction(Opcode.LOADA, A(3), (A(1), 0)),
        Instruction(Opcode.LOADA, A(2), (A(1), 0)),
        Instruction(Opcode.STORES, None, (S(4), A(1), 0)),
        Instruction(Opcode.LOADA, A(3), (A(1), 0)),
    ), 1000)
    body = _entries(
        Instruction(Opcode.PASS, None, ()),
        Instruction(Opcode.STOREA, None, (A(3), A(1), 0)),
    )
    trace = _repeated(body, 24, prefix=prefix)
    assert compile_trace(trace).regions == ((4, 2, 52),)
    for spec in ("inorder:4", "inorder:4:1bus"):
        simulator = build_simulator(spec)
        for config in CONFIGS:
            _assert_matches(simulator, trace, config, (spec, config.name))


def test_scoreboard_key_holds_the_write_done_cycles():
    """A chained vector write (VSMUL into V2, read by the next body's
    VVADD) finishes its tail a cycle earlier relative to the issue front
    for a few bodies after every other key field has settled: only the
    write-done cycles tell those boundaries apart."""
    body = _entries(
        Instruction(Opcode.PASS, None, ()),
        (Instruction(Opcode.VVADD, V(4), (V(2), V(1))), 8),
        (Instruction(Opcode.VSMUL, V(2), (S(1), V(1))), 8),
        (Instruction(Opcode.VSTORE, None, (V(1), A(2), 1)), 1),
    )
    trace = _repeated(body, 14)
    assert compile_trace(trace).regions
    simulator = build_simulator("cray")
    for config in CONFIGS:
        _assert_matches(simulator, trace, config, config.name)


def test_spec_key_holds_the_register_ready_cycles():
    """A reciprocal that is a new static instruction in every body (as
    in fully unrolled code) misses value prediction every time: its
    register can turn ready up to ``value_penalty`` cycles after the
    producer commits, a state no live entry shows."""
    entries = []
    for body in range(20):
        entries += _entries(
            frecip(3, 2), frecip(2, 1), frecip(2, 2),
            Instruction(Opcode.STORES, None, (S(4), A(1), 0)),
        )
        # The third reciprocal: a static instruction of its own.
        entries[-2] = replace(entries[-2], static_index=1000 * (body + 1))
        entries.append(_closing_branch(4))
    trace = assemble_trace(entries, name="unrolled")
    assert compile_trace(trace).regions
    simulator = build_simulator("spec:4:2bit:vp=last:units=2")
    for config in CONFIGS:
        _assert_matches(simulator, trace, config, config.name)


def test_spec_key_holds_the_issue_resume_cycle():
    """Without speculation a single-issue machine waits a branch time
    behind every closing branch; the cycle issue resumes is no live
    entry's, so the key carries it."""
    body = _entries(
        Instruction(Opcode.FADD, S(2), (S(4), S(3))),
        Instruction(Opcode.STORES, None, (S(4), A(1), 0)),
    )
    body.append(_closing_branch(len(body)))
    trace = _repeated(body, 29)
    simulator = build_simulator("spec:3:none:units=1")
    for config in CONFIGS:
        _assert_matches(simulator, trace, config, config.name)


# ----------------------------------------------------------------------
# Speculation: outcomes that settle inside a region
# ----------------------------------------------------------------------

def _skipped(simulator, trace) -> int:
    fastpath.reset_stats()
    simulator.simulate(trace, M11BR5)
    return fastpath.stats()["python.skipped_instructions"]


def test_spec_region_whose_first_bodies_mispredict():
    """A prefix trains the closing branch's 2-bit counter against the
    body (not taken), so the body's branch mispredicts in the first two
    bodies: the speculative loop's region starts a body later than the
    trace's, where the outcomes settle, and still skips exactly."""
    body = _entries(aadd(1, 1), loads(4, 1), fmul(2, 4, 4), aadd(0, 0, -1))
    body.append(_closing_branch(len(body)))
    prefix = []
    for filler in _shifted(_entries(aadd(3, 3), aadd(5, 5), aadd(6, 6)), 1000):
        prefix += [filler, _closing_branch(len(body) - 1, taken=False)]
    trace = _repeated(body, 30, prefix=prefix)
    compiled = compile_trace(trace)
    [(start, period, end)] = compiled.regions
    for spec in ("spec:50:2bit", "spec:8:2bit:units=1"):
        simulator = build_simulator(spec)
        outcomes = spec_outcomes(
            compiled, simulator.predictor_factory, None,
            entries=trace.entries,
        )
        assert outcomes.regions == ((start + period, period, end),)
        for config in CONFIGS:
            _assert_matches(simulator, trace, config, (spec, config.name))
        assert _skipped(simulator, trace) > 0, spec


def test_spec_value_warm_up_spanning_two_bodies():
    """``vp=stride`` misses a producer's first two instances: the
    region's first body still misses, so the speculative loop's region
    starts a body later, while ``vp=last`` hits from the region start."""
    trace = _repeated(_recurrence_body(), 30)
    compiled = compile_trace(trace)
    [(start, period, end)] = compiled.regions
    for spec, first in (("spec:50:2bit:vp=stride", start + period),
                        ("spec:50:2bit:vp=last", start)):
        simulator = build_simulator(spec)
        outcomes = spec_outcomes(
            compiled, simulator.predictor_factory, simulator.vp_warmup,
            entries=trace.entries,
        )
        assert outcomes.regions == ((first, period, end),), spec
        for config in CONFIGS:
            _assert_matches(simulator, trace, config, (spec, config.name))
        assert _skipped(simulator, trace) > 0, spec


def test_spec_outcomes_settling_deep_in_a_region():
    """Four static copies of a body's first four ops take turns, as an
    unrolled loop's would, so the period scan sees a one-body period
    while ``vp=stride`` warms each copy of a producer up over two of its
    own instances: the outcomes settle eight bodies in.  A jump taken
    from a repeated state before that point would skip the change from
    value misses to hits."""
    ops = (
        Instruction(Opcode.FMUL, S(4), (S(4), S(5))),
        Instruction(Opcode.FMUL, S(2), (S(4), S(4))),
        Instruction(Opcode.FADD, S(2), (S(1), S(5))),
        Instruction(Opcode.LOADS, S(3), (A(1), 0)),
        Instruction(Opcode.FMUL, S(2), (S(3), S(1))),
    )
    entries = []
    for body in range(15):
        copy = 100 * (body % 4 + 1)
        entries += [
            TraceEntry(
                seq=0, static_index=index + (copy if index < 4 else 0),
                instruction=instruction,
            )
            for index, instruction in enumerate(ops)
        ]
        entries.append(_closing_branch(50))
    trace = assemble_trace(entries, name="copies")
    compiled = compile_trace(trace)
    [(start, period, end)] = compiled.regions
    assert (start, period) == (period, len(ops) + 1)
    for spec in ("spec:2:2bit:vp=stride:units=1", "spec:8:2bit:vp=stride"):
        simulator = build_simulator(spec)
        outcomes = spec_outcomes(
            compiled, simulator.predictor_factory, simulator.vp_warmup,
            entries=trace.entries,
        )
        assert outcomes.regions == ((8 * period, period, end),), spec
        for config in CONFIGS:
            _assert_matches(simulator, trace, config, (spec, config.name))


#: Instructions the fast-forward skips over loops 1-14 at M11BR5, per
#: spec: 27,857 instructions at the default sizes, 3,612 at
#: ``SMALL_SIZES``.  Bit-identity cannot see a replay that stops
#: skipping (it is still exact, only slower), so the reach is pinned.
SKIPPED = {
    ("default", "ruu:4:50"): 20_668,
    ("default", "ruu:2:10"): 23_238,
    ("default", "ruu:4:50:1bus"): 21_576,
    ("default", "ooo:4"): 24_531,
    ("default", "ooo:4:xbar"): 24_531,
    ("default", "ooo:4:1bus"): 24_499,
    ("default", "inorder:4"): 24_539,
    ("default", "inorder:4:xbar"): 24_539,
    ("default", "cray"): 23_964,
    ("default", "spec:50:2bit"): 19_778,
    ("default", "spec:50:2bit:vp=last"): 19_426,
    ("small", "ruu:4:50"): 234,
    ("small", "ooo:4"): 1_313,
    ("small", "inorder:4"): 1_321,
    ("small", "cray"): 992,
    ("small", "spec:50:2bit"): 38,
}


def test_kernels_skip_instructions():
    sizes = {"default": DEFAULT_SIZES, "small": SMALL_SIZES}
    skipped = {}
    for label, spec in SKIPPED:
        simulator = build_simulator(spec)
        fastpath.reset_stats()
        for loop in range(1, 15):
            simulator.simulate(_kernel(loop, sizes[label]), M11BR5)
        skipped[label, spec] = fastpath.stats()["python.skipped_instructions"]
    assert skipped == SKIPPED
