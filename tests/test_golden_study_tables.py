"""Golden regression tests for the extension-study plans.

``tests/data/golden_study_tables.json`` pins every cell of the ten
study plans at each study's own sizes (``workers=1``, no cache),
bit-exactly, like ``golden_appendix_tables.json`` does for the Section
3.3 quote and the per-loop table.  The values were first captured from
the route these plans replaced -- per-study scripts building each
machine by constructor and harmonic-meaning ``simulator.issue_rate`` (or
reading ``simulate(...).cycles``) over ``build_kernel``,
``build_vectorized``, ``build_extended`` and ``synthetic_trace`` traces
-- so the plans reproduce it to the last bit.  Regenerate after an
intentional change with
``PYTHONPATH=src python tests/data/regen_golden_study_tables.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_study_tables.json").read_text())

# The regen script owns the plan list; importing it keeps this module
# and the pinned JSON generated from one definition.
_spec = importlib.util.spec_from_file_location(
    "regen_golden_study_tables", DATA / "regen_golden_study_tables.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_golden_file_covers_the_regen_plans():
    assert set(GOLDEN) == set(regen.TABLE_IDS)


@pytest.mark.parametrize("table_id", regen.TABLE_IDS)
def test_plan_matches_golden(table_id, study_table):
    table = study_table(table_id)
    expected = GOLDEN[table_id]
    measured = {row: dict(values) for row, values in table.rows}
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
