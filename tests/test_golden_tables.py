"""Golden regression tests: every Tables 1-8 harmonic mean is pinned.

The reference values in ``tests/data/golden_tables.json`` were captured
from this repository's own seed run (``SMALL_SIZES`` problem sizes,
``workers=1``, no cache) -- they pin the *reproduction's* behaviour, not
the paper's numbers (``repro tables --compare`` covers the paper).  Any
change to kernel encodings, scheduling, machine timing or the
harmonic-mean merge that moves a single cell fails here with the exact
cell named.

Values are compared bit-exactly: the engine is deterministic, so a
difference of one ULP is a real behaviour change.

All eight tables run in tier-1: the R-sweep tables (5-8) are the only
goldens for the out-of-order and RUU machines, and the steady-state
fast-forward keeps them to a few seconds at ``SMALL_SIZES``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.api as api
from repro.core import fastpath
from repro.kernels import SMALL_SIZES

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_tables.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

_TABLES = tuple(f"table{number}" for number in range(1, 9))


def _assert_matches_golden(table_id: str) -> None:
    run = api.run_table(
        table_id, sizes=dict(SMALL_SIZES), workers=1, cache=False
    )
    expected = GOLDEN[table_id]
    measured = {row: dict(values) for row, values in run.table.rows}
    assert set(measured) == set(expected), (
        f"{table_id} row set changed: "
        f"missing {sorted(set(expected) - set(measured))}, "
        f"extra {sorted(set(measured) - set(expected))}"
    )
    mismatches = []
    for row, columns in expected.items():
        for column, value in columns.items():
            got = measured[row].get(column)
            if got != value:
                mismatches.append(
                    f"{table_id}[{row}][{column}]: got {got!r}, "
                    f"pinned {value!r}"
                )
    assert not mismatches, "\n".join(mismatches)


def test_golden_file_covers_every_table():
    """Tables 1-8 are pinned here; the speculation limit study (9-10)
    is pinned in ``golden_spec_tables.json``.  Together the two golden
    files must cover every runnable table."""
    spec_golden = json.loads(
        (Path(__file__).parent / "data" / "golden_spec_tables.json")
        .read_text()
    )
    assert set(GOLDEN) | set(spec_golden) == set(api.list_tables())
    assert not set(GOLDEN) & set(spec_golden)


@pytest.mark.parametrize("table_id", _TABLES)
def test_table_matches_seed_run(table_id):
    _assert_matches_golden(table_id)


def test_table_matches_seed_run_with_fastpath_disabled():
    """Forcing the reference loops must reproduce the same golden cells:
    the fast path and reference path agree at the harmonic-mean level
    too, not just per trace."""
    previous = fastpath.set_enabled(False)
    try:
        _assert_matches_golden("table1")
    finally:
        fastpath.set_enabled(previous)


def test_table_run_took_the_fast_path():
    """The golden runs above actually exercise the fast path (workers=1
    keeps the engine in-process, so the counters are visible).  Pinned
    enabled so a REPRO_FASTPATH=0 environment still tests the claim."""
    previous = fastpath.set_enabled(True)
    try:
        fastpath.reset_stats()
        _assert_matches_golden("table1")
        assert fastpath.stats()["fast_runs"] > 0
    finally:
        fastpath.set_enabled(previous)


def test_golden_scalar_and_vectorizable_splits_present():
    """Table 1/2 pin both loop-class splits under all four variants."""
    table1 = GOLDEN["table1"]
    scalar = [row for row in table1 if row.startswith("scalar/")]
    vector = [row for row in table1 if row.startswith("vectorizable/")]
    assert scalar and vector
    for row in table1:
        assert set(table1[row]) == {"M11BR5", "M11BR2", "M5BR5", "M5BR2"}
