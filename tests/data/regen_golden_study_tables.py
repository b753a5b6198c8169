#!/usr/bin/env python
"""Regenerate ``tests/data/golden_study_tables.json``.

Pins every cell of the extension-study plans (the Section 3.3
spectrum, ablations, unrolling, memory system, branch prediction, FU
duplication, vectorisation, workload characteristics, calibration,
extended kernels) at each study's own sizes -- the default kernel sizes, or the sizes the study
pins itself -- with ``workers=1`` and no cache.  These are the numbers
EXPERIMENTS.md quotes and ``benchmarks/results/<id>.txt`` archives.  The
engine is deterministic, so the values are compared bit-exactly and a
one-ULP drift is a real behaviour change.

Run from the repository root after an *intentional* behaviour change:

    PYTHONPATH=src python tests/data/regen_golden_study_tables.py

and commit the regenerated JSON together with the change that moved it.
The test module (``tests/test_golden_study_tables.py``) imports the
constants below, so the pinned plans and the checked plans cannot drift.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Plans pinned by this file.
TABLE_IDS = (
    "section33-spectrum",
    "ablations",
    "unrolling",
    "memory-system",
    "branch-prediction",
    "fu-duplication",
    "vectorization",
    "workload-characteristics",
    "calibration",
    "extended-kernels",
)

OUT = Path(__file__).parent / "golden_study_tables.json"


def compute():
    import repro.api as api

    golden = {}
    for table_id in TABLE_IDS:
        run = api.run_table(table_id, workers=1, cache=False)
        golden[table_id] = {
            row: dict(values) for row, values in run.table.rows
        }
    return golden


def main():
    OUT.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(TABLE_IDS)} tables to {OUT}")


if __name__ == "__main__":
    main()
