"""The paper's reported results, transcribed as :class:`ResultTable` data.

These tables use the same row/column labels the experiment plans in
:mod:`repro.harness.plans` produce, so a measured table and its paper
counterpart can be compared cell-by-cell with
:func:`repro.harness.tables.compare_tables`.

Transcription notes:

* Tables 1-3, 5 and 7 are transcribed verbatim from TR #752.
* Table 4 and Table 6 leave a few 8-issue-station cells unreadable in the
  available scan; unreadable cells are simply omitted (the comparison
  machinery skips missing cells).
* Table 8's M11BR5 rows for RUU sizes 40 and 50 are damaged in the scan;
  the values used here are reconstructed from the surrounding monotone
  trends and are marked with ``# reconstructed`` comments.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .tables import ResultTable

CONFIG_NAMES: Tuple[str, ...] = ("M11BR5", "M11BR2", "M5BR5", "M5BR2")
CLASS_LABELS: Tuple[str, ...] = ("scalar", "vectorizable")
BUS_LABELS: Tuple[str, ...] = ("N-Bus", "1-Bus")
RUU_SIZES: Tuple[int, ...] = (10, 20, 30, 40, 50, 100)
RUU_UNITS: Tuple[int, ...] = (1, 2, 3, 4)


def _grid(columns, rows):
    return ResultTable(
        table_id="",
        title="",
        columns=tuple(columns),
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# Table 1: basic machine organisations
# ----------------------------------------------------------------------

_T1_DATA = {
    "scalar/Simple": (0.24, 0.25, 0.32, 0.33),
    "scalar/SerialMemory": (0.35, 0.36, 0.48, 0.50),
    "scalar/NonSegmented": (0.43, 0.45, 0.50, 0.53),
    "scalar/CRAY-like": (0.44, 0.47, 0.51, 0.55),
    "vectorizable/Simple": (0.21, 0.21, 0.29, 0.30),
    "vectorizable/SerialMemory": (0.29, 0.30, 0.42, 0.45),
    "vectorizable/NonSegmented": (0.42, 0.45, 0.49, 0.53),
    "vectorizable/CRAY-like": (0.45, 0.49, 0.54, 0.59),
}

PAPER_TABLE1 = ResultTable(
    table_id="table1-paper",
    title="Paper Table 1: issue rates for basic machine organisations",
    columns=CONFIG_NAMES,
    rows=tuple(
        (label, dict(zip(CONFIG_NAMES, values)))
        for label, values in _T1_DATA.items()
    ),
)

# ----------------------------------------------------------------------
# Table 2: pseudo-dataflow / resource / actual limits
# ----------------------------------------------------------------------

_T2_COLUMNS = ("pseudo-dataflow", "resource", "actual")

_T2_DATA = {
    "scalar/Pure M11BR5": (1.34, 4.66, 1.29),
    "scalar/Pure M11BR2": (1.37, 4.66, 1.29),
    "scalar/Pure M5BR5": (1.34, 4.66, 1.29),
    "scalar/Pure M5BR2": (1.37, 4.66, 1.29),
    "vectorizable/Pure M11BR5": (3.35, 3.43, 2.78),
    "vectorizable/Pure M11BR2": (4.40, 3.43, 3.15),
    "vectorizable/Pure M5BR5": (3.35, 3.43, 2.78),
    "vectorizable/Pure M5BR2": (4.40, 3.43, 3.15),
    "scalar/Serial M11BR5": (0.79, 4.66, 0.79),
    "scalar/Serial M11BR2": (0.79, 4.66, 0.79),
    "scalar/Serial M5BR5": (0.85, 4.66, 0.85),
    "scalar/Serial M5BR2": (0.85, 4.66, 0.85),
    "vectorizable/Serial M11BR5": (0.93, 3.43, 0.93),
    "vectorizable/Serial M11BR2": (0.96, 3.43, 0.96),
    "vectorizable/Serial M5BR5": (1.05, 3.43, 1.05),
    "vectorizable/Serial M5BR2": (1.09, 3.43, 1.09),
}

PAPER_TABLE2 = ResultTable(
    table_id="table2-paper",
    title="Paper Table 2: pseudo-dataflow and resource limits",
    columns=_T2_COLUMNS,
    rows=tuple(
        (label, dict(zip(_T2_COLUMNS, values)))
        for label, values in _T2_DATA.items()
    ),
)

# ----------------------------------------------------------------------
# Tables 3-6: multiple issue units (columns "<config> <bus>", rows 1..8)
# ----------------------------------------------------------------------

_MULTI_COLUMNS = tuple(
    f"{config} {bus}" for config in CONFIG_NAMES for bus in BUS_LABELS
)


def _multi_table(table_id: str, title: str, per_column: Dict[str, Tuple]) -> ResultTable:
    rows = []
    for station in range(1, 9):
        values: Dict[str, float] = {}
        for column, series in per_column.items():
            if station - 1 < len(series) and series[station - 1] is not None:
                values[column] = series[station - 1]
        rows.append((str(station), values))
    return ResultTable(
        table_id=table_id,
        title=title,
        columns=_MULTI_COLUMNS,
        rows=tuple(rows),
    )


PAPER_TABLE3 = _multi_table(
    "table3-paper",
    "Paper Table 3: multiple issue units, sequential issue, scalar code",
    {
        "M11BR5 N-Bus": (0.44, 0.45, 0.46, 0.46, 0.47, 0.47, 0.47, 0.47),
        "M11BR5 1-Bus": (0.44, 0.45, 0.46, 0.46, 0.46, 0.46, 0.47, 0.47),
        "M11BR2 N-Bus": (0.47, 0.49, 0.50, 0.50, 0.50, 0.50, 0.51, 0.51),
        "M11BR2 1-Bus": (0.47, 0.49, 0.50, 0.50, 0.50, 0.50, 0.51, 0.51),
        "M5BR5 N-Bus": (0.51, 0.54, 0.55, 0.55, 0.56, 0.56, 0.56, 0.56),
        "M5BR5 1-Bus": (0.51, 0.53, 0.55, 0.55, 0.55, 0.55, 0.56, 0.56),
        "M5BR2 N-Bus": (0.55, 0.58, 0.60, 0.60, 0.61, 0.61, 0.61, 0.61),
        "M5BR2 1-Bus": (0.55, 0.58, 0.60, 0.60, 0.60, 0.60, 0.61, 0.61),
    },
)

PAPER_TABLE4 = _multi_table(
    "table4-paper",
    "Paper Table 4: multiple issue units, sequential issue, vectorizable code",
    {
        "M11BR5 N-Bus": (0.45, 0.48, 0.49, 0.49, 0.49, 0.50, 0.50, None),
        "M11BR5 1-Bus": (0.45, 0.48, 0.48, 0.48, 0.49, 0.49, 0.49, None),
        "M11BR2 N-Bus": (0.49, 0.53, 0.53, 0.54, 0.54, 0.54, 0.54, None),
        "M11BR2 1-Bus": (0.49, 0.52, 0.52, 0.53, 0.53, 0.53, 0.53, 0.53),
        "M5BR5 N-Bus": (0.54, 0.58, 0.58, 0.59, 0.59, 0.59, 0.59, 0.60),
        "M5BR5 1-Bus": (0.54, 0.57, 0.57, 0.59, 0.59, 0.59, 0.59, None),
        "M5BR2 N-Bus": (0.59, 0.64, 0.64, 0.66, 0.66, 0.66, 0.66, None),
        "M5BR2 1-Bus": (0.59, 0.63, 0.64, 0.65, 0.65, 0.65, 0.65, None),
    },
)

PAPER_TABLE5 = _multi_table(
    "table5-paper",
    "Paper Table 5: multiple issue units, out-of-order issue, scalar code",
    {
        "M11BR5 N-Bus": (0.44, 0.46, 0.48, 0.50, 0.49, 0.50, 0.51, None),
        "M11BR5 1-Bus": (0.44, 0.46, 0.47, 0.50, 0.48, 0.49, 0.51, None),
        "M11BR2 N-Bus": (0.47, 0.49, 0.51, 0.52, 0.51, 0.52, 0.52, None),
        "M11BR2 1-Bus": (0.47, 0.49, 0.50, 0.51, 0.51, 0.51, 0.52, None),
        "M5BR5 N-Bus": (0.51, 0.55, 0.56, 0.62, 0.59, 0.60, 0.63, None),
        "M5BR5 1-Bus": (0.51, 0.54, 0.56, 0.61, 0.59, 0.60, 0.62, 0.61),
        "M5BR2 N-Bus": (0.55, 0.60, 0.61, 0.64, 0.63, 0.63, 0.65, 0.64),
        "M5BR2 1-Bus": (0.55, 0.60, 0.61, 0.64, 0.63, 0.63, 0.65, 0.64),
    },
)

PAPER_TABLE6 = _multi_table(
    "table6-paper",
    "Paper Table 6: multiple issue units, out-of-order issue, vectorizable code",
    {
        "M11BR5 N-Bus": (0.45, 0.48, 0.50, 0.52, 0.51, 0.53, 0.54, 0.54),
        "M11BR5 1-Bus": (0.45, 0.48, 0.49, 0.51, 0.50, 0.53, 0.53, None),
        "M11BR2 N-Bus": (0.49, 0.53, 0.54, 0.55, 0.54, 0.57, 0.57, None),
        "M11BR2 1-Bus": (0.49, 0.52, 0.53, 0.55, 0.53, 0.56, 0.56, 0.56),
        "M5BR5 N-Bus": (0.54, 0.58, 0.59, 0.62, 0.61, 0.64, 0.65, 0.64),
        "M5BR5 1-Bus": (0.54, 0.58, 0.59, 0.62, 0.60, 0.63, 0.64, 0.64),
        "M5BR2 N-Bus": (0.59, 0.64, 0.65, 0.68, 0.66, 0.69, 0.69, None),
        "M5BR2 1-Bus": (0.59, 0.65, 0.65, 0.68, 0.66, 0.69, 0.69, None),
    },
)

# ----------------------------------------------------------------------
# Tables 7-8: RUU dependency resolution
# rows "<config>/R<size>", columns "x<units> <bus>"
# ----------------------------------------------------------------------

_RUU_COLUMNS = tuple(
    f"x{units} {bus}" for units in RUU_UNITS for bus in BUS_LABELS
)


def _ruu_table(table_id: str, title: str, data) -> ResultTable:
    rows = []
    for config in CONFIG_NAMES:
        for size in RUU_SIZES:
            cells = data[config][size]
            values = dict(zip(_RUU_COLUMNS, cells))
            rows.append((f"{config}/R{size}", values))
    return ResultTable(
        table_id=table_id,
        title=title,
        columns=_RUU_COLUMNS,
        rows=tuple(rows),
    )


PAPER_TABLE7 = _ruu_table(
    "table7-paper",
    "Paper Table 7: multiple issue units with dependency resolution, scalar code",
    {
        "M11BR5": {
            10: (0.59, 0.59, 0.61, 0.59, 0.62, 0.59, 0.62, 0.59),
            20: (0.67, 0.67, 0.76, 0.69, 0.79, 0.69, 0.79, 0.69),
            30: (0.69, 0.69, 0.76, 0.70, 0.82, 0.70, 0.82, 0.70),
            40: (0.72, 0.72, 0.76, 0.74, 0.83, 0.74, 0.83, 0.74),
            50: (0.72, 0.72, 0.78, 0.75, 0.83, 0.75, 0.83, 0.75),
            100: (0.72, 0.72, 0.78, 0.75, 0.83, 0.75, 0.83, 0.75),
        },
        "M11BR2": {
            10: (0.60, 0.60, 0.61, 0.60, 0.62, 0.60, 0.62, 0.60),
            20: (0.71, 0.71, 0.79, 0.72, 0.81, 0.72, 0.80, 0.72),
            30: (0.73, 0.73, 0.80, 0.75, 0.82, 0.75, 0.83, 0.75),
            40: (0.74, 0.74, 0.81, 0.78, 0.83, 0.78, 0.82, 0.78),
            50: (0.74, 0.74, 0.83, 0.78, 0.83, 0.78, 0.83, 0.78),
            100: (0.74, 0.74, 0.83, 0.78, 0.83, 0.78, 0.83, 0.78),
        },
        "M5BR5": {
            10: (0.66, 0.66, 0.71, 0.68, 0.74, 0.68, 0.74, 0.68),
            20: (0.70, 0.70, 0.81, 0.74, 0.82, 0.74, 0.84, 0.74),
            30: (0.72, 0.72, 0.83, 0.77, 0.85, 0.77, 0.86, 0.77),
            40: (0.75, 0.75, 0.84, 0.80, 0.86, 0.80, 0.87, 0.80),
            50: (0.75, 0.75, 0.85, 0.80, 0.86, 0.80, 0.87, 0.80),
            100: (0.75, 0.75, 0.85, 0.81, 0.86, 0.81, 0.87, 0.81),
        },
        "M5BR2": {
            10: (0.70, 0.70, 0.73, 0.71, 0.74, 0.71, 0.74, 0.71),
            20: (0.75, 0.75, 0.86, 0.77, 0.85, 0.78, 0.86, 0.78),
            30: (0.78, 0.78, 0.87, 0.80, 0.88, 0.81, 0.87, 0.81),
            40: (0.80, 0.80, 0.88, 0.81, 0.89, 0.84, 0.89, 0.84),
            50: (0.80, 0.80, 0.88, 0.81, 0.89, 0.84, 0.89, 0.84),
            100: (0.80, 0.80, 0.88, 0.84, 0.89, 0.84, 0.89, 0.84),
        },
    },
)

PAPER_TABLE8 = _ruu_table(
    "table8-paper",
    "Paper Table 8: multiple issue units with dependency resolution, "
    "vectorizable code",
    {
        "M11BR5": {
            10: (0.62, 0.62, 0.64, 0.63, 0.65, 0.63, 0.65, 0.62),
            20: (0.76, 0.76, 0.91, 0.81, 0.93, 0.81, 0.94, 0.81),
            30: (0.80, 0.80, 1.04, 0.86, 1.10, 0.86, 1.13, 0.86),
            40: (0.81, 0.81, 1.08, 0.89, 1.15, 0.89, 1.21, 0.89),  # reconstructed
            50: (0.81, 0.81, 1.15, 0.90, 1.23, 0.90, 1.29, 0.90),  # reconstructed
            100: (0.81, 0.81, 1.23, 0.92, 1.46, 0.93, 1.59, 0.93),
        },
        "M11BR2": {
            10: (0.63, 0.63, 0.65, 0.63, 0.65, 0.63, 0.65, 0.63),
            20: (0.81, 0.81, 0.96, 0.85, 0.97, 0.85, 0.98, 0.85),
            30: (0.85, 0.85, 1.12, 0.92, 1.19, 0.92, 1.22, 0.92),
            40: (0.88, 0.88, 1.21, 0.97, 1.29, 0.97, 1.32, 0.97),
            50: (0.88, 0.88, 1.31, 1.00, 1.40, 1.00, 1.45, 1.00),
            100: (0.88, 0.88, 1.44, 1.03, 1.73, 1.03, 1.87, 1.03),
        },
        "M5BR5": {
            10: (0.73, 0.73, 0.78, 0.74, 0.78, 0.74, 0.79, 0.74),
            20: (0.80, 0.80, 0.99, 0.87, 1.04, 0.89, 1.05, 0.89),
            30: (0.82, 0.82, 1.08, 0.91, 1.18, 0.93, 1.22, 0.94),
            40: (0.82, 0.82, 1.11, 0.93, 1.22, 0.96, 1.29, 0.97),
            50: (0.82, 0.82, 1.16, 0.94, 1.29, 0.97, 1.35, 0.97),
            100: (0.82, 0.82, 1.22, 0.94, 1.50, 0.97, 1.65, 0.98),
        },
        "M5BR2": {
            10: (0.75, 0.75, 0.78, 0.76, 0.79, 0.76, 0.79, 0.76),
            20: (0.89, 0.89, 1.08, 0.95, 1.12, 0.95, 1.13, 0.95),
            30: (0.91, 0.91, 1.23, 0.99, 1.34, 0.99, 1.36, 0.99),
            40: (0.91, 0.91, 1.29, 1.02, 1.40, 1.02, 1.47, 1.02),
            50: (0.91, 0.91, 1.36, 1.02, 1.50, 1.02, 1.59, 1.02),
            100: (0.91, 0.91, 1.45, 1.03, 1.78, 1.03, 2.01, 1.03),
        },
    },
)

#: Section 3.3's quoted single-issue dependency-resolution rates (M11BR5).
PAPER_SECTION33 = {
    "scalar": 0.72,
    "vectorizable": 0.81,
}

#: The same quote labelled like the ``section33`` plan's table.
PAPER_SECTION33_TABLE = ResultTable(
    table_id="section33-paper",
    title="Paper Section 3.3: single-issue dependency resolution",
    columns=("M11BR5",),
    rows=tuple(
        (class_label, {"M11BR5": rate})
        for class_label, rate in PAPER_SECTION33.items()
    ),
)

#: All paper tables by experiment id.
PAPER_TABLES = {
    "table1": PAPER_TABLE1,
    "table2": PAPER_TABLE2,
    "table3": PAPER_TABLE3,
    "table4": PAPER_TABLE4,
    "table5": PAPER_TABLE5,
    "table6": PAPER_TABLE6,
    "table7": PAPER_TABLE7,
    "table8": PAPER_TABLE8,
}
