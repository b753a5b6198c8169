#!/usr/bin/env python
"""Regenerate ``tests/data/golden_appendix_tables.json``.

Pins every cell of the two plans that are not numbered tables: the
Section 3.3 quote (``section33``: single-issue RUU rates per loop class
on M11BR5) and the per-loop appendix (``per-loop``: each loop on four
machines next to its actual limit), at the ``SMALL_SIZES`` problem
sizes with ``workers=1`` and no cache -- the same regime as
``tests/data/golden_tables.json`` for Tables 1-8.  The engine is
deterministic, so the values are compared bit-exactly and a one-ULP
drift is a real behaviour change.

Run from the repository root after an *intentional* behaviour change:

    PYTHONPATH=src python tests/data/regen_golden_appendix_tables.py

and commit the regenerated JSON together with the change that moved it.
The test module (``tests/test_golden_appendix_tables.py``) imports the
constants below, so the pinned plans and the checked plans cannot drift.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Plans pinned by this file.
TABLE_IDS = ("section33", "per-loop")

OUT = Path(__file__).parent / "golden_appendix_tables.json"


def compute():
    import repro.api as api
    from repro.kernels import SMALL_SIZES

    golden = {}
    for table_id in TABLE_IDS:
        run = api.run_table(
            table_id, sizes=dict(SMALL_SIZES), workers=1, cache=False
        )
        golden[table_id] = {
            row: dict(values) for row, values in run.table.rows
        }
    return golden


def main():
    OUT.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(TABLE_IDS)} tables to {OUT}")


if __name__ == "__main__":
    main()
