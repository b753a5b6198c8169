"""Analytic-estimator invariants (`repro.explore.model`).

The headline properties the screen's correctness rests on, asserted
with hypothesis over random knob settings on real workload anchors:

* the clamped estimate always lies inside the trace's
  [serial, dataflow] bracket;
* the estimate is monotone nondecreasing in issue width, window size
  and FU duplication;
* the model's resource term at ``fu=1`` equals the exact resource
  limit (same numbers `repro limits --format json` reports), so the
  estimator is anchored to the limit study rather than merely inspired
  by it.

Plus the compiled-IR statistics the anchors are built from: the
functional-unit demand view over their unit counts.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.explore.model import (
    TraceAnchors,
    _resource_rate,
    build_anchors,
    estimate_one,
)
from repro.trace import DiskCache
from repro.trace.sources import trace_source
from repro.trace.stats import ir_statistics

SOURCES = (
    "branchy:seed=3:n=200",
    "pointer:seed=5:n=200",
    "fuzz:seed=7:len=200",
    "synthetic:deep:seed=3:n=200",
)

EPS = 1e-9


@functools.lru_cache(maxsize=None)
def anchors_for(source: str) -> TraceAnchors:
    return build_anchors(source)


families = st.sampled_from(["inorder", "ooo", "ruu"])
buses = st.sampled_from(["nbus", "1bus"])
widths = st.integers(min_value=1, max_value=64)
windows = st.integers(min_value=1, max_value=1024)
fus = st.integers(min_value=1, max_value=8)
source_specs = st.sampled_from(SOURCES)


class TestBracket:
    @settings(max_examples=120, deadline=None)
    @given(source=source_specs, family=families, width=widths,
           window=windows, bus=buses, fu=fus)
    def test_estimate_within_serial_dataflow_bracket(
        self, source, family, width, window, bus, fu
    ):
        anchors = anchors_for(source)
        estimate = estimate_one(
            [anchors], family=family, width=width, window=window,
            bus=bus, fu=fu,
        )
        assert anchors.serial_rate - EPS <= estimate
        assert estimate <= anchors.dataflow_rate + EPS


class TestMonotonicity:
    @settings(max_examples=80, deadline=None)
    @given(source=source_specs, family=families, width=widths,
           window=windows, bus=buses, fu=fus)
    def test_nondecreasing_in_width(
        self, source, family, width, window, bus, fu
    ):
        anchors = anchors_for(source)
        lo = estimate_one([anchors], family=family, width=width,
                          window=window, bus=bus, fu=fu)
        hi = estimate_one([anchors], family=family, width=width + 1,
                          window=window, bus=bus, fu=fu)
        assert hi >= lo - EPS

    @settings(max_examples=80, deadline=None)
    @given(source=source_specs, width=widths, window=windows,
           bus=buses, fu=fus)
    def test_nondecreasing_in_window(self, source, width, window, bus, fu):
        anchors = anchors_for(source)
        lo = estimate_one([anchors], family="ruu", width=width,
                          window=window, bus=bus, fu=fu)
        hi = estimate_one([anchors], family="ruu", width=width,
                          window=window * 2, bus=bus, fu=fu)
        assert hi >= lo - EPS

    @settings(max_examples=80, deadline=None)
    @given(source=source_specs, family=families, width=widths,
           window=windows, bus=buses, fu=fus)
    def test_nondecreasing_in_fu(
        self, source, family, width, window, bus, fu
    ):
        anchors = anchors_for(source)
        lo = estimate_one([anchors], family=family, width=width,
                          window=window, bus=bus, fu=fu)
        hi = estimate_one([anchors], family=family, width=width,
                          window=window, bus=bus, fu=fu + 1)
        assert hi >= lo - EPS


class TestAnchors:
    @pytest.mark.parametrize("source", SOURCES)
    def test_resource_term_equals_exact_resource_limit(self, source):
        """At fu=1 the model's resource term IS the limit study's bound."""
        anchors = anchors_for(source)
        payload = api.limits(source).to_payload()
        assert _resource_rate(anchors, 1) == pytest.approx(
            payload["resource"]["rate"]
        )
        assert anchors.dataflow_rate == pytest.approx(
            payload["pseudo_dataflow"]["rate"]
        )
        serial_payload = api.limits(source, serial=True).to_payload()
        assert anchors.serial_rate == pytest.approx(
            serial_payload["actual_rate"]
        )

    def test_anchors_cache_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cold = build_anchors(SOURCES[0], cache=cache)
        warm = build_anchors(SOURCES[0], cache=cache)
        assert warm == cold

    def test_payload_round_trip(self):
        anchors = anchors_for(SOURCES[1])
        assert TraceAnchors.from_payload(anchors.to_payload()) == anchors


class TestIRStats:
    def test_fu_demand_is_unit_counts_over_length(self):
        ir = ir_statistics(trace_source(SOURCES[0]))
        assert ir.fu_demand == {
            unit: count / ir.length
            for unit, count in ir.unit_counts.items()
        }
        assert list(ir.fu_demand) == list(ir.unit_counts)
