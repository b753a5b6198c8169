"""Generic result tables and plain-text rendering.

Every experiment plan (:mod:`repro.harness.plans`) merges into a
:class:`ResultTable`; the same structure holds the paper's reported
numbers (:mod:`repro.harness.paper`), so measured-vs-paper comparisons are
table-to-table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ResultTable:
    """A labelled grid of issue rates (or limits).

    Attributes:
        table_id: short identifier (``"table1"``, ``"section33"`` ...).
        title: human-readable description.
        columns: ordered column labels.
        rows: ordered (row label, {column label: value}) pairs.
    """

    table_id: str
    title: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[str, Mapping[str, float]], ...]

    def __post_init__(self) -> None:
        for label, values in self.rows:
            unknown = set(values) - set(self.columns)
            if unknown:
                raise ValueError(
                    f"row {label!r} has values for unknown columns {unknown}"
                )

    def value(self, row_label: str, column: str) -> float:
        """Look up one cell (raises KeyError if absent)."""
        for label, values in self.rows:
            if label == row_label:
                return values[column]
        raise KeyError(f"no row labelled {row_label!r}")

    @property
    def row_labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.rows)

    def render(self, precision: int = 2, min_label_width: int = 24) -> str:
        """Fixed-width plain-text rendering, in the paper's style."""
        label_width = max(
            [min_label_width] + [len(label) for label in self.row_labels]
        )
        col_width = max([7] + [len(c) + 2 for c in self.columns])
        lines = [self.title]
        header = " " * label_width + "".join(
            f"{col:>{col_width}}" for col in self.columns
        )
        lines.append(header)
        lines.append("-" * len(header))
        for label, values in self.rows:
            cells = []
            for col in self.columns:
                if col in values:
                    cells.append(f"{values[col]:>{col_width}.{precision}f}")
                else:
                    cells.append(" " * (col_width - 1) + "-")
            lines.append(f"{label:<{label_width}}" + "".join(cells))
        return "\n".join(lines)


def compare_tables(
    measured: ResultTable,
    reference: ResultTable,
) -> List[Tuple[str, str, float, float]]:
    """Cell-by-cell (row, column, measured, reference) pairs.

    Only cells present in both tables are compared; row and column labels
    must match exactly.
    """
    pairs: List[Tuple[str, str, float, float]] = []
    reference_rows = dict(reference.rows)
    for label, values in measured.rows:
        if label not in reference_rows:
            continue
        ref_values = reference_rows[label]
        for column, value in values.items():
            if column in ref_values:
                pairs.append((label, column, value, ref_values[column]))
    return pairs
