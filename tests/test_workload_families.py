"""Structural and statistical contracts of the new workload families.

Each family promises a *shape* (that's why it exists): branchy traces
are control-dominated with data-dependent outcomes, pointer traces
chase serial load chains, mixed traces strip-mine vector blocks around
a scalar reduction.  The structural tests pin those shapes
instruction-by-instruction; the calibration tests hold each family's
statistics, over seeded sweeps, inside the envelopes documented in
:data:`repro.trace.sources.FAMILY_ENVELOPES` (tier-1 samples 50 seeds;
the nightly slow run holds the full 200).
"""

from __future__ import annotations

import pytest

from repro.isa import Opcode
from repro.trace.sources import (
    FAMILY_ENVELOPES,
    MIXED_MACHINES,
    trace_source,
)
from repro.trace.stats import ir_statistics
from repro.workloads import (
    BranchySpec,
    MixedSpec,
    PointerSpec,
    branchy_trace,
    mixed_trace,
    pointer_trace,
)

pytestmark = pytest.mark.sources

_COND_BRANCHES = {Opcode.JAZ, Opcode.JAN, Opcode.JAP, Opcode.JAM}


# ----------------------------------------------------------------------
# Branchy: control-dominated, data-dependent outcomes
# ----------------------------------------------------------------------

def test_branchy_branches_test_a0_and_record_outcomes():
    trace = branchy_trace(BranchySpec(length=200, seed=5))
    branches = [e for e in trace.entries if e.instruction.is_branch]
    assert branches, "branchy trace without branches"
    for entry in branches:
        assert entry.instruction.opcode in _COND_BRANCHES
        assert entry.instruction.target, "conditional branch needs a label"
        assert entry.taken is not None
        assert entry.backward is not None
    # Data-dependent control: both outcomes occur across the trace.
    outcomes = {entry.taken for entry in branches}
    assert outcomes == {True, False}


def test_branchy_taken_fraction_tracks_the_knob():
    def taken_rate(taken_fraction):
        trace = branchy_trace(
            BranchySpec(length=400, seed=1, taken_fraction=taken_fraction)
        )
        branches = [e for e in trace.entries if e.instruction.is_branch]
        return sum(1 for e in branches if e.taken) / len(branches)

    assert taken_rate(0.9) > taken_rate(0.5) > taken_rate(0.1)
    assert taken_rate(0.0) == 0.0
    assert taken_rate(1.0) == 1.0


def test_branchy_block_knob_sets_branch_density():
    sparse = ir_statistics(trace_source("branchy:n=300:block=8"))
    dense = ir_statistics(trace_source("branchy:n=300:block=1"))
    assert dense.branch_fraction > 2 * sparse.branch_fraction


def test_branchy_loads_carry_addresses():
    trace = branchy_trace(BranchySpec(length=300, seed=2))
    loads = [
        e for e in trace.entries
        if e.instruction.opcode is Opcode.LOADA
    ]
    assert loads, "branchy trace without loads"
    for entry in loads:
        assert entry.address is not None


# ----------------------------------------------------------------------
# Pointer: serial chase, gathers off the chain
# ----------------------------------------------------------------------

def test_pointer_chase_loads_depend_on_previous_hop():
    trace = pointer_trace(PointerSpec(length=200, seed=3, chains=1))
    chase = [
        e.instruction for e in trace.entries
        if e.instruction.opcode is Opcode.LOADA
    ]
    assert len(chase) >= 10
    # Every hop's address register is some earlier hop's destination:
    # the serial dependence that makes the family defeat wide issue.
    destinations = set()
    dependent = 0
    for instr in chase:
        base = instr.srcs[0]
        if base in destinations:
            dependent += 1
        destinations.add(instr.dest)
    assert dependent >= len(chase) - 1


def test_pointer_gather_fraction_tracks_the_knob():
    def gather_share(gather):
        trace = pointer_trace(
            PointerSpec(length=300, seed=4, gather_fraction=gather)
        )
        gathers = sum(
            1 for e in trace.entries
            if e.instruction.opcode is Opcode.LOADS
        )
        return gathers / len(trace)

    assert gather_share(0.8) > gather_share(0.2)
    assert gather_share(0.0) == 0.0


def test_pointer_statistics_show_short_dependence_distance():
    stats = ir_statistics(trace_source("pointer:n=256"))
    assert stats.mean_dependence_distance < 2.0
    assert stats.dependent_fraction > 0.95


# ----------------------------------------------------------------------
# Mixed: strip-mined vector blocks, scalar interludes
# ----------------------------------------------------------------------

def test_mixed_strips_cover_all_elements():
    elements, strip = 200, 64
    trace = mixed_trace(MixedSpec(elements=elements, strip=strip))
    setls = [
        e.instruction for e in trace.entries
        if e.instruction.opcode is Opcode.VSETL
    ]
    vloads = [
        e for e in trace.entries
        if e.instruction.opcode is Opcode.VLOAD
    ]
    assert setls, "strip-mined trace without VSETL"
    # Two VLOADs per strip; each strip's vector length sums to the
    # element count exactly once over the loads of one stream.
    lengths = [e.vector_length for e in vloads]
    assert all(1 <= length <= strip for length in lengths)
    assert sum(lengths) == 2 * elements


def test_mixed_vector_entries_carry_lengths_and_setl_does_not():
    trace = mixed_trace(MixedSpec(elements=100, strip=32))
    for entry in trace.entries:
        if entry.instruction.opcode is Opcode.VSETL:
            assert entry.vector_length is None
        elif entry.instruction.is_vector:
            assert entry.vector_length >= 1


def test_mixed_has_scalar_interludes():
    trace = mixed_trace(MixedSpec(elements=128))
    opcodes = {entry.instruction.opcode for entry in trace.entries}
    assert Opcode.FADD in opcodes and Opcode.FMUL in opcodes


def test_mixed_rejected_by_scalar_machines():
    from repro.core import M11BR5, build_simulator

    trace = trace_source("mixed:n=64")
    for spec in MIXED_MACHINES:
        result = build_simulator(spec).simulate(trace, M11BR5)
        assert result.cycles > 0
    with pytest.raises(ValueError):
        build_simulator("ooo:2").simulate(trace, M11BR5)


def test_mixed_family_verifies_on_vector_machines():
    """The invariant checker understands vector completion (issue +
    latency + vl) and chain-point forwarding on the scoreboard family."""
    import repro.api as api

    report = api.verify_machines(
        4, source="mixed:n=80", machines=list(MIXED_MACHINES), shrink=False
    )
    assert report.ok
    assert report.seeds_run == 4


def test_vector_archive_requires_vector_machines_in_verify(tmp_path):
    """A file: archive carrying vector ops gets the same machine
    restriction as the mixed head, not a mid-campaign crash."""
    import repro.api as api
    from repro.trace import export_trace

    path = tmp_path / "vec.jsonl"
    export_trace(trace_source("mixed:n=64"), path)
    with pytest.raises(ValueError, match="vector-capable"):
        api.verify_machines(2, source=f"file:{path}", shrink=False)
    report = api.verify_machines(
        2, source=f"file:{path}", machines=list(MIXED_MACHINES), shrink=False
    )
    assert report.ok


# ----------------------------------------------------------------------
# Envelope calibration
# ----------------------------------------------------------------------

_CHECKED_STATS = (
    "branch_fraction",
    "memory_fraction",
    "vector_fraction",
    "mean_dependence_distance",
    "dependent_fraction",
)


def _assert_inside_envelope(family, seeds):
    envelope = FAMILY_ENVELOPES[family]
    out = []
    for seed in seeds:
        stats = ir_statistics(trace_source(f"{family}:seed={seed}"))
        for stat in _CHECKED_STATS:
            low, high = envelope[stat]
            value = getattr(stats, stat)
            if not low <= value <= high:
                out.append(
                    f"{family}:seed={seed} {stat}={value:.4f} "
                    f"outside [{low}, {high}]"
                )
    assert not out, "\n".join(out)


@pytest.mark.parametrize("family", sorted(FAMILY_ENVELOPES))
def test_family_statistics_inside_envelope(family):
    _assert_inside_envelope(family, range(50))


@pytest.mark.slow
@pytest.mark.parametrize("family", sorted(FAMILY_ENVELOPES))
def test_family_statistics_inside_envelope_full(family):
    """Nightly: the documented 200-seed calibration sweep."""
    _assert_inside_envelope(family, range(200))


def test_envelopes_documented_for_every_seeded_family():
    from repro.trace.sources import list_sources

    seeded = {s.name for s in list_sources() if s.seeded}
    assert set(FAMILY_ENVELOPES) == seeded


def test_fu_demand_sums_to_one():
    for family in sorted(FAMILY_ENVELOPES):
        stats = ir_statistics(trace_source(f"{family}:seed=0"))
        assert sum(stats.fu_demand.values()) == pytest.approx(1.0)
        assert all(share > 0 for share in stats.fu_demand.values())
