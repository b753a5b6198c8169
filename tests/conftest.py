"""Shared fixtures: small kernels and traces for fast tests."""

from __future__ import annotations

import pytest

from repro.core import (
    M5BR2,
    M5BR5,
    M11BR2,
    M11BR5,
)
from repro.kernels import SMALL_SIZES, build_kernel


@pytest.fixture(scope="session")
def small_sizes():
    """Reduced per-loop problem sizes for fast experiments."""
    return dict(SMALL_SIZES)


@pytest.fixture(scope="session")
def small_traces(small_sizes):
    """Verified small traces for all 14 loops, keyed by loop number."""
    traces = {}
    for number, n in small_sizes.items():
        traces[number] = build_kernel(number, n).verify()
    return traces


@pytest.fixture(scope="session")
def loop5_trace(small_traces):
    """A scalar recurrence loop (tri-diagonal elimination)."""
    return small_traces[5]


@pytest.fixture(scope="session")
def loop12_trace(small_traces):
    """A fully parallel vectorizable loop (first difference)."""
    return small_traces[12]


@pytest.fixture(params=[M11BR5, M11BR2, M5BR5, M5BR2], ids=lambda c: c.name)
def any_config(request):
    """Parametrised over the paper's four machine variants."""
    return request.param


@pytest.fixture(scope="session")
def study_table():
    """``study_table(table_id)``: an extension-study plan's table at the
    study's own sizes (``workers=1``, no cache), run once per session
    and shared by the golden and the shape tests."""
    import repro.api as api

    tables = {}

    def run(table_id):
        if table_id not in tables:
            tables[table_id] = api.run_table(
                table_id, workers=1, cache=False
            ).table
        return tables[table_id]

    return run
