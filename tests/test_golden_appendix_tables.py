"""Golden regression tests for the Section 3.3 quote and the per-loop table.

``tests/data/golden_appendix_tables.json`` pins every cell of the
``section33`` and ``per-loop`` plans at ``SMALL_SIZES`` (``workers=1``,
no cache), bit-exactly, exactly like ``golden_tables.json`` does for
Tables 1-8.  The values were first captured from the route these plans
replaced -- per-class loops calling ``simulator.issue_rate`` on
``build_kernel`` traces -- so the plans reproduce it to the last bit.
Regenerate after an intentional change with
``PYTHONPATH=src python tests/data/regen_golden_appendix_tables.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import repro.api as api
from repro.kernels import SMALL_SIZES

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_appendix_tables.json").read_text())

# The regen script owns the plan list; importing it keeps this module
# and the pinned JSON generated from one definition.
_spec = importlib.util.spec_from_file_location(
    "regen_golden_appendix_tables", DATA / "regen_golden_appendix_tables.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _assert_matches_golden(table_id: str) -> None:
    run = api.run_table(
        table_id, sizes=dict(SMALL_SIZES), workers=1, cache=False
    )
    expected = GOLDEN[table_id]
    measured = {row: dict(values) for row, values in run.table.rows}
    assert set(measured) == set(expected), table_id
    mismatches = []
    for row, columns in expected.items():
        assert set(measured[row]) == set(columns), (table_id, row)
        for column, value in columns.items():
            got = measured[row][column]
            if got != value:
                mismatches.append(
                    f"{table_id}[{row}][{column}]: got {got!r}, "
                    f"pinned {value!r}"
                )
    assert not mismatches, "\n".join(mismatches)


def test_golden_file_covers_the_regen_plans():
    assert set(GOLDEN) == set(regen.TABLE_IDS)


@pytest.mark.parametrize("table_id", regen.TABLE_IDS)
def test_plan_matches_golden(table_id):
    _assert_matches_golden(table_id)


def test_section33_reads_the_plan_rows():
    rates = api.section33(dict(SMALL_SIZES))
    assert rates == {
        row: values["M11BR5"] for row, values in GOLDEN["section33"].items()
    }

