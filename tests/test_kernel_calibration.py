"""Per-kernel-calibrated fuzzing and family-conditional oracle edges.

Two layers:

* **Calibration** -- :func:`repro.verify.kernel_calibrated_spec` maps
  each Livermore kernel's measured :func:`ir_statistics` envelope
  onto the fuzzer's knobs.  The tests pin the mapping (knobs equal the
  clamped measurements) and hold the *generated* traces to the kernel's
  mix: the fuzzer must actually reproduce the calibrated fractions, and
  wide-dataflow kernels must calibrate to measurably wider fuzzed
  dataflow than tight recurrences.
* **Family-conditional edges** -- relationships the oracle's global
  partial order cannot express because they hold only on a workload
  family, asserted per seed rather than observed: pointer chases
  (branch-free serial address chains) collapse both the ooo/inorder gap
  and the branch-predictor gap, while branchy traces keep both strictly
  open in aggregate.
"""

from __future__ import annotations

import pytest

from repro.core import M5BR2, M11BR5
from repro.core.registry import build_simulator
from repro.kernels import ALL_LOOPS, SMALL_SIZES
from repro.trace.sources import trace_source
from repro.trace.stats import ir_statistics
from repro.verify import kernel_calibrated_spec, run_oracle
from repro.verify.fuzz import fuzz_trace

#: One representative corner each: tight recurrence, wide dataflow,
#: control-heavy -- enough for tier-1; the slow sweep covers all 14.
_FAST_LOOPS = (5, 8, 11)


# ----------------------------------------------------------------------
# The calibration mapping
# ----------------------------------------------------------------------

@pytest.mark.parametrize("loop", ALL_LOOPS)
def test_calibrated_knobs_track_measured_envelope(loop):
    n = SMALL_SIZES[loop]
    spec = kernel_calibrated_spec(loop, n=n)
    stats = ir_statistics(trace_source(f"kernel:{loop}:n={n}"))

    assert spec.branch_fraction == min(stats.branch_fraction, 0.35)
    assert spec.memory_fraction <= 1.0 - spec.branch_fraction
    assert abs(
        spec.memory_fraction
        - min(stats.memory_fraction, 1.0 - spec.branch_fraction)
    ) < 1e-12
    assert 0.05 <= spec.dependency_density <= 0.95
    assert 0.0 <= spec.float_fraction <= 1.0
    # Livermore branches are dominated by loop back-edges: mostly taken,
    # overwhelmingly backward (loop 2's early-out is the one forward
    # branch in the suite).
    assert spec.taken_fraction >= 0.6
    assert spec.backward_fraction >= 0.8
    assert spec.length == min(stats.length, 120)


def test_calibration_orders_dataflow_width():
    """Loop 8 (long mean dependence distances, wide dataflow) must
    calibrate to a lower dependency density than loop 5 (the
    tri-diagonal recurrence), and loop 5's small sizes must not change
    that ordering."""
    wide = kernel_calibrated_spec(8, n=SMALL_SIZES[8])
    tight = kernel_calibrated_spec(5, n=SMALL_SIZES[5])
    assert wide.dependency_density < tight.dependency_density


def test_calibration_resolves_the_memoized_kernel_trace(monkeypatch):
    """The calibrated kernel's trace resolves through the engine's trace
    memo: a second calibration of the same kernel captures nothing."""
    import repro.harness.engine as engine

    engine.clear_process_memo()
    captured = []
    capture = engine.trace_source

    def counting(spec):
        captured.append(spec)
        return capture(spec)

    monkeypatch.setattr(engine, "trace_source", counting)
    first = kernel_calibrated_spec(5, n=SMALL_SIZES[5])
    assert kernel_calibrated_spec(5, n=SMALL_SIZES[5]) == first
    assert captured == [f"kernel:5:n={SMALL_SIZES[5]}"]


@pytest.mark.parametrize("loop", _FAST_LOOPS)
def test_calibrated_traces_reproduce_kernel_mix(loop):
    """The fuzzer really emits the calibrated mix: measured branch and
    memory fractions over a seed aggregate stay within sampling noise
    of the knobs."""
    spec = kernel_calibrated_spec(loop, n=SMALL_SIZES[loop])
    total = branches = memory = 0
    for seed in range(20):
        stats = ir_statistics(fuzz_trace(seed, spec))
        total += stats.length
        branches += round(stats.branch_fraction * stats.length)
        memory += round(stats.memory_fraction * stats.length)
    assert abs(branches / total - spec.branch_fraction) < 0.05, loop
    # The fuzzer's memory roll happens on the non-branch remainder and
    # kernels batch their loads; allow a wider (but still binding) band.
    assert abs(memory / total - spec.memory_fraction) < 0.08, loop


def test_calibrated_density_shapes_generated_dataflow():
    """Calibration must carry through generation: loop-8-shaped fuzz
    (density 0.05) shows measurably wider dataflow than loop-5-shaped
    fuzz (density 0.95) on the fuzzer's own statistics."""
    wide_spec = kernel_calibrated_spec(8, n=SMALL_SIZES[8])
    tight_spec = kernel_calibrated_spec(5, n=SMALL_SIZES[5])
    wide = [
        ir_statistics(fuzz_trace(seed, wide_spec)) for seed in range(10)
    ]
    tight = [
        ir_statistics(fuzz_trace(seed, tight_spec)) for seed in range(10)
    ]
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    assert mean([s.mean_dependence_distance for s in wide]) > mean(
        [s.mean_dependence_distance for s in tight]
    )


@pytest.mark.parametrize("loop", _FAST_LOOPS)
def test_oracle_holds_on_calibrated_traces(loop):
    """The full oracle (speculative machines and their edges included)
    stays clean on kernel-shaped fuzzing, not just the default shape."""
    spec = kernel_calibrated_spec(loop, n=SMALL_SIZES[loop])
    for seed in range(5):
        trace = fuzz_trace(seed, spec)
        for config in (M11BR5, M5BR2):
            report = run_oracle(trace, config)
            assert report.ok, (loop, seed, config.name, report.violations)


@pytest.mark.slow
@pytest.mark.parametrize("loop", ALL_LOOPS)
def test_oracle_holds_on_calibrated_traces_full_sweep(loop):
    spec = kernel_calibrated_spec(loop, n=SMALL_SIZES[loop])
    for seed in range(20):
        trace = fuzz_trace(seed, spec)
        for config in (M11BR5, M5BR2):
            report = run_oracle(trace, config)
            assert report.ok, (loop, seed, config.name, report.violations)


# ----------------------------------------------------------------------
# Family-conditional oracle edges (asserted, not observed)
# ----------------------------------------------------------------------

_N_FAMILY_SEEDS = 30


def _family(template, seeds):
    return [trace_source(f"{template}:seed={seed}") for seed in seeds]


def test_pointer_chasing_collapses_ooo_inorder_gap():
    """On pointer chases the serial address chain is the critical path:
    out-of-order issue has nothing to reorder, so in-order issue at the
    same width must finish in (essentially) the same time, per seed."""
    ooo = build_simulator("ooo:4")
    inorder = build_simulator("inorder:4")
    for trace in _family("pointer", range(_N_FAMILY_SEEDS)):
        for config in (M11BR5, M5BR2):
            a = inorder.simulate(trace, config).cycles
            b = ooo.simulate(trace, config).cycles
            assert b <= a <= b * 1.05, (trace.name, config.name, a, b)


def test_pointer_chasing_collapses_branch_prediction_gap():
    """Pointer traces carry no branches (the family envelope pins
    branch_fraction to exactly zero), so the speculative machine's
    predictor must be fully inert: cycles identical with and without
    one, per seed, bit-exact."""
    none = build_simulator("spec:50:none")
    twobit = build_simulator("spec:50:2bit")
    for trace in _family("pointer", range(_N_FAMILY_SEEDS)):
        for config in (M11BR5, M5BR2):
            assert (
                none.simulate(trace, config).cycles
                == twobit.simulate(trace, config).cycles
            ), (trace.name, config.name)


def test_branchy_traces_keep_both_gaps_open():
    """The converse conditional: on the control-dominated family the
    same pairs separate strictly in aggregate -- out-of-order issue
    beats in-order, and 2-bit prediction beats no speculation."""
    ooo = build_simulator("ooo:4")
    inorder = build_simulator("inorder:4")
    none = build_simulator("spec:50:none")
    twobit = build_simulator("spec:50:2bit")
    inorder_total = ooo_total = none_total = twobit_total = 0
    for trace in _family("branchy", range(_N_FAMILY_SEEDS)):
        for config in (M11BR5, M5BR2):
            inorder_total += inorder.simulate(trace, config).cycles
            ooo_total += ooo.simulate(trace, config).cycles
            none_total += none.simulate(trace, config).cycles
            twobit_total += twobit.simulate(trace, config).cycles
    assert ooo_total < inorder_total
    assert twobit_total < none_total


def test_parallel_fuzz_separates_issue_disciplines():
    """Wide independent dataflow (the parallel fuzz family) is where
    out-of-order issue pays off; the gap must be strictly open in
    aggregate there while individual seeds may tie."""
    ooo = build_simulator("ooo:4")
    inorder = build_simulator("inorder:4")
    inorder_total = ooo_total = 0
    for trace in _family("fuzz:parallel", range(_N_FAMILY_SEEDS)):
        for config in (M11BR5, M5BR2):
            a = inorder.simulate(trace, config).cycles
            b = ooo.simulate(trace, config).cycles
            assert b <= a, (trace.name, config.name)
            inorder_total += a
            ooo_total += b
    assert ooo_total < inorder_total
