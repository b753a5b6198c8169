"""Integration tests: the 14 Livermore kernels against their references."""

import numpy as np
import pytest

from repro.kernels import (
    ALL_LOOPS,
    KERNEL_NAMES,
    SCALAR_LOOPS,
    SMALL_SIZES,
    VECTORIZABLE_LOOPS,
    KernelInstance,
    LoopClass,
    build_all,
    build_kernel,
    classify,
    default_size,
    loops_in_class,
)
from repro.trace import trace_stats


class TestClassification:
    def test_partition(self):
        assert sorted(SCALAR_LOOPS + VECTORIZABLE_LOOPS) == list(range(1, 15))
        assert set(SCALAR_LOOPS).isdisjoint(VECTORIZABLE_LOOPS)

    def test_paper_assignment(self):
        assert SCALAR_LOOPS == (5, 6, 11, 13, 14)
        assert VECTORIZABLE_LOOPS == (1, 2, 3, 4, 7, 8, 9, 10, 12)

    def test_classify(self):
        assert classify(5) is LoopClass.SCALAR
        assert classify(1) is LoopClass.VECTORIZABLE
        with pytest.raises(ValueError):
            classify(15)

    def test_loops_in_class(self):
        assert loops_in_class(LoopClass.SCALAR) == SCALAR_LOOPS
        assert loops_in_class(LoopClass.VECTORIZABLE) == VECTORIZABLE_LOOPS


class TestRegistry:
    def test_all_loops_buildable(self):
        for number in ALL_LOOPS:
            instance = build_kernel(number, SMALL_SIZES[number])
            assert instance.number == number
            assert instance.name == KERNEL_NAMES[number]

    def test_unknown_loop(self):
        with pytest.raises(ValueError):
            build_kernel(0)
        with pytest.raises(ValueError):
            build_kernel(15)
        with pytest.raises(ValueError):
            default_size(99)

    def test_build_all_with_sizes(self):
        instances = build_all((1, 5), sizes={1: 8, 5: 8})
        assert [k.n for k in instances] == [8, 8]


@pytest.mark.parametrize("number", ALL_LOOPS)
class TestVerification:
    def test_scheduled_kernel_matches_reference(self, number):
        instance = build_kernel(number, SMALL_SIZES[number], schedule=True)
        trace = instance.verify()
        assert len(trace) > 0

    def test_naive_kernel_matches_reference(self, number):
        instance = build_kernel(number, SMALL_SIZES[number], schedule=False)
        instance.verify()


@pytest.mark.parametrize("number", ALL_LOOPS)
class TestTraceShape:
    def test_trace_ends_with_untaken_loop_branch(self, number):
        trace = build_kernel(number, SMALL_SIZES[number]).verify()
        last = trace[len(trace) - 1]
        # Every kernel finishes by falling out of its final loop (loop 3
        # stores its reduction afterwards).
        branches = [e for e in trace if e.is_branch]
        assert branches, "kernels must contain loops"
        assert branches[-1].taken is False

    def test_trace_contains_memory_references(self, number):
        trace = build_kernel(number, SMALL_SIZES[number]).verify()
        stats = trace_stats(trace)
        assert stats.loads > 0
        assert 0.05 < stats.memory_fraction < 0.8

    def test_trace_is_deterministic(self, number):
        a = build_kernel(number, SMALL_SIZES[number]).verify()
        b = build_kernel(number, SMALL_SIZES[number]).verify()
        assert len(a) == len(b)
        assert all(
            ea.instruction == eb.instruction and ea.taken == eb.taken
            for ea, eb in zip(a, b)
        )


class TestInstanceBehaviour:
    def test_initial_memory_not_mutated_by_runs(self):
        instance = build_kernel(12, 8)
        before = instance.initial_memory.copy()
        instance.verify()
        assert instance.initial_memory == before

    def test_trace_cache_returns_same_object(self):
        a = build_kernel(12, 8)
        b = build_kernel(12, 8)
        assert a.trace() is b.trace()

    def test_scheduled_and_naive_cached_separately(self):
        sched = build_kernel(12, 8, schedule=True).trace()
        naive = build_kernel(12, 8, schedule=False).trace()
        assert sched is not naive

    @pytest.mark.parametrize(
        "options, spec",
        [
            ({}, "kernel:12:n=16"),
            ({"schedule": False}, "kernel:12:n=16:schedule=off"),
            ({"unroll": 2}, "kernel:12:n=16:unroll=2"),
            ({"explicit_addressing": True},
             "kernel:12:n=16:addressing=explicit"),
            ({"unroll": 2, "schedule": False, "explicit_addressing": True},
             "kernel:12:n=16:unroll=2:schedule=off:addressing=explicit"),
            ({"vector": True}, "kernel:12:n=16:vector=on"),
        ],
    )
    def test_source_spec_rebuilds_the_instance(self, options, spec):
        """Every variant records the trace-source spec that recaptures
        exactly its trace (the key its ``trace()`` memoizes under)."""
        from repro.kernels.vectorized import build_vectorized
        from repro.trace import trace_source

        options = dict(options)
        if options.pop("vector", False):
            instance = build_vectorized(12, 16)
        else:
            instance = build_kernel(12, 16, **options)
        assert instance.source == spec
        assert trace_source(instance.source) == instance.verify()

    def test_default_size_spec_names_the_size(self):
        assert build_kernel(5).source == f"kernel:5:n={default_size(5)}"

    def test_loop_class_property(self):
        assert build_kernel(5, 8).loop_class is LoopClass.SCALAR
        assert build_kernel(1, 8).loop_class is LoopClass.VECTORIZABLE

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_kernel(1, 0)
        with pytest.raises(ValueError):
            build_kernel(2, 24)  # not a power of two
        with pytest.raises(ValueError):
            build_kernel(4, 10)  # too small for the banded structure


class TestKernelContent:
    def test_loop3_stores_dot_product(self):
        instance = build_kernel(3, 16)
        trace, memory = instance.run()
        q = instance.arrays["q"].read_from(memory)[0]
        assert q == pytest.approx(float(instance.expected["q"][0]), rel=1e-12)

    def test_loop11_prefix_sum(self):
        instance = build_kernel(11, 16)
        _, memory = instance.run()
        x = instance.arrays["x"].read_from(memory)
        assert np.all(np.diff(x) > 0)  # positive inputs -> increasing sums

    def test_loop13_histogram_mass(self):
        n = SMALL_SIZES[13]
        instance = build_kernel(13, n)
        _, memory = instance.run()
        h = instance.arrays["h"].read_from(memory)
        assert h.sum() == pytest.approx(n)  # one deposit per particle

    def test_loop14_charge_conservation(self):
        n = SMALL_SIZES[14]
        instance = build_kernel(14, n)
        _, memory = instance.run()
        rh = instance.arrays["rh"].read_from(memory)
        assert rh.sum() == pytest.approx(n)  # (1-rx) + rx per particle

    def test_loop2_uses_the_shift_unit(self):
        trace = build_kernel(2, 16).verify()
        stats = trace_stats(trace)
        from repro.isa import Opcode

        assert stats.by_opcode.get(Opcode.SSHR, 0) > 0

    def test_loop8_uses_backup_registers(self):
        from repro.isa import Opcode

        trace = build_kernel(8, SMALL_SIZES[8]).verify()
        stats = trace_stats(trace)
        assert stats.by_opcode.get(Opcode.SMOVE, 0) > 0
