"""Exact-timing and invariant tests for the RUU dependency-resolution machine."""

import pytest

from repro.core import (
    BusKind,
    M5BR2,
    M11BR5,
    RUUMachine,
    cray_like_machine,
)

from helpers import aadd, fadd, fmul, jan, loads, make_trace, si, stores


class TestExactTiming:
    def test_single_instruction(self):
        # issue@0 into the RUU, dispatch@1, result back @2, commit@2.
        sim = RUUMachine(1, 10)
        assert sim.simulate(make_trace([si(1)]), M11BR5).cycles == 2

    def test_dependent_chain_uses_bypass(self):
        sim = RUUMachine(4, 10)
        trace = make_trace([si(1), fadd(2, 1, 1), fmul(3, 2, 2)])
        # issue all @0; si dispatch@1, back@2; fadd dispatch@2, back@8;
        # fmul dispatch@8, back@15; commit in order ... last commit 15.
        assert sim.simulate(trace, M11BR5).cycles == 15

    def test_no_bypass_costs_a_cycle_per_hop(self):
        lazy = RUUMachine(4, 10, bypass=False)
        trace = make_trace([si(1), fadd(2, 1, 1), fmul(3, 2, 2)])
        # Each forwarded operand is usable one cycle later: +1 per hop.
        assert lazy.simulate(trace, M11BR5).cycles == 17

    def test_waw_does_not_block_issue(self):
        """Register instances let both writers proceed (the paper's point)."""
        sim = RUUMachine(4, 10)
        # Two independent writes to S1 with consumers of each instance.
        trace = make_trace([loads(1, 1), fadd(2, 1, 1), si(1), fadd(3, 1, 1)])
        result = sim.simulate(trace, M11BR5)
        # The si and its consumer need not wait for the load: the second
        # fadd dispatches long before the load-dependent one commits.
        # load: dispatch@1 back@12; fadd#1 dispatch@12 back@18;
        # si dispatch@2 back@3; fadd#2 dispatch@3 back@9 -> head-of-line
        # commit order: load@12, fadd@18, si@18, fadd#2@18 ... last 18.
        assert result.cycles == 18

    def test_ruu_full_blocks_issue(self):
        small = RUUMachine(4, 1)  # one entry: fully serialised
        trace = make_trace([si(1), si(2), si(3)])
        result = small.simulate(trace, M11BR5)
        big = RUUMachine(4, 10).simulate(trace, M11BR5)
        assert result.cycles > big.cycles

    def test_branch_blocks_issue_until_resolution(self):
        sim = RUUMachine(4, 20)
        trace = make_trace([aadd(0, 0, 1), jan(True), si(1)])
        result = sim.simulate(trace, M11BR5)
        # aadd issues@0, dispatch@1, A0 available @3 (bypass at return);
        # branch waits at issue until 3, resolves 3+5=8; si issues@8,
        # dispatch@9, back@10, commit@10.
        assert result.cycles == 10

    def test_stores_commit_without_result(self):
        sim = RUUMachine(2, 10)
        trace = make_trace([si(1), stores(1, 0)])
        result = sim.simulate(trace, M11BR5)
        # si: dispatch@1 back@2; store: operand S1 ready@2, dispatch@2,
        # completes 13, commits @13.
        assert result.cycles == 13


class TestOneBusOrganisation:
    def test_one_dispatch_per_cycle(self):
        onebus = RUUMachine(4, 20, BusKind.ONE_BUS)
        nbus = RUUMachine(4, 20, BusKind.N_BUS)
        # Four independent transfers: TRANSFER accepts 1/cycle anyway, so
        # use different units to expose the dispatch-path limit.
        trace = make_trace([si(1), aadd(1, 1, 1), fadd(2, 1, 1), loads(3, 2)])
        assert (
            onebus.simulate(trace, M11BR5).cycles
            >= nbus.simulate(trace, M11BR5).cycles
        )

    def test_xbar_rejected(self):
        with pytest.raises(ValueError):
            RUUMachine(2, 10, BusKind.X_BAR)

    def test_path_width(self):
        assert RUUMachine(4, 10, BusKind.N_BUS).path_width == 4
        assert RUUMachine(4, 10, BusKind.ONE_BUS).path_width == 1

    def test_one_bus_rate_saturates_near_one(self, small_traces):
        """One commit per cycle caps the 1-Bus machine near 1.0 (branches
        commit nothing, so the cap is 1 + branch fraction at most)."""
        sim = RUUMachine(4, 100, BusKind.ONE_BUS)
        for trace in small_traces.values():
            assert sim.issue_rate(trace, M5BR2) <= 1.25


class TestInvariants:
    def test_dependency_resolution_beats_issue_blocking(
        self, small_traces, any_config
    ):
        """Section 3.3: dependency resolution lifts the single-issue rate."""
        ruu = RUUMachine(1, 50)
        cray = cray_like_machine()
        for trace in small_traces.values():
            assert (
                ruu.issue_rate(trace, any_config)
                >= cray.issue_rate(trace, any_config) - 1e-9
            )

    def test_monotone_in_ruu_size(self, small_traces):
        sizes = (2, 5, 10, 20, 50, 100)
        for trace in small_traces.values():
            rates = [
                RUUMachine(4, size).issue_rate(trace, M11BR5) for size in sizes
            ]
            for smaller, larger in zip(rates, rates[1:]):
                assert larger >= smaller * 0.98

    def test_more_issue_units_never_hurt_much(self, small_traces):
        for trace in small_traces.values():
            rates = [
                RUUMachine(u, 50).issue_rate(trace, M11BR5) for u in (1, 2, 4)
            ]
            assert rates[-1] >= rates[0] * 0.98

    def test_rate_bounded_by_issue_width(self, small_traces, any_config):
        for units in (1, 2, 4):
            sim = RUUMachine(units, 100)
            for trace in small_traces.values():
                assert sim.issue_rate(trace, any_config) <= units

    def test_nbus_at_least_one_bus(self, small_traces):
        nbus = RUUMachine(4, 50, BusKind.N_BUS)
        onebus = RUUMachine(4, 50, BusKind.ONE_BUS)
        for trace in small_traces.values():
            assert (
                nbus.issue_rate(trace, M11BR5)
                >= onebus.issue_rate(trace, M11BR5) - 1e-9
            )

    def test_ordered_memory_never_faster(self, small_traces):
        ordered = RUUMachine(4, 50, ordered_memory=True)
        free = RUUMachine(4, 50, ordered_memory=False)
        for trace in small_traces.values():
            assert (
                ordered.issue_rate(trace, M11BR5)
                <= free.issue_rate(trace, M11BR5) + 1e-9
            )

    def test_validation_and_name(self):
        with pytest.raises(ValueError):
            RUUMachine(0, 10)
        with pytest.raises(ValueError):
            RUUMachine(1, 0)
        name = RUUMachine(2, 50, BusKind.ONE_BUS, bypass=False).name
        assert "R=50" in name and "no-bypass" in name


class TestFunctionalUnitCopies:
    def test_more_copies_never_hurt(self, small_traces):
        for trace in small_traces.values():
            r1 = RUUMachine(4, 50, fu_copies=1).issue_rate(trace, M11BR5)
            r2 = RUUMachine(4, 50, fu_copies=2).issue_rate(trace, M11BR5)
            assert r2 >= r1 * 0.98

    def test_copies_relax_a_unit_bottleneck(self):
        # Four independent loads per "iteration": one memory port takes
        # 4 cycles to accept them, two ports take 2.
        items = [si(1)]
        items += [loads((i % 6) + 2, 1) for i in range(12)]
        trace = make_trace(items)
        one = RUUMachine(4, 50, fu_copies=1).simulate(trace, M11BR5)
        two = RUUMachine(4, 50, fu_copies=2).simulate(trace, M11BR5)
        assert two.cycles < one.cycles

    def test_name_mentions_copies(self):
        assert "2xFU" in RUUMachine(2, 20, fu_copies=2).name

    def test_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            RUUMachine(2, 20, fu_copies=0)


class TestOccupancyStatistics:
    def test_occupancy_bounded_by_size(self, small_traces):
        for trace in list(small_traces.values())[:4]:
            for size in (5, 20):
                detail = RUUMachine(4, size).simulate(trace, M11BR5).detail
                assert 0 <= detail["ruu_occupancy_mean"] <= size

    def test_full_stalls_vanish_with_a_large_ruu(self, small_traces):
        trace = small_traces[12]
        small = RUUMachine(4, 4).simulate(trace, M11BR5).detail
        large = RUUMachine(4, 100).simulate(trace, M11BR5).detail
        assert small["ruu_full_stall_cycles"] > 0
        assert large["ruu_full_stall_cycles"] == 0

    def test_branch_stalls_insensitive_to_ruu_size(self, small_traces):
        trace = small_traces[12]
        a = RUUMachine(4, 20).simulate(trace, M11BR5).detail
        b = RUUMachine(4, 100).simulate(trace, M11BR5).detail
        assert a["branch_stall_cycles"] == b["branch_stall_cycles"]
