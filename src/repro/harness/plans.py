"""Declarative experiment plans: tables decomposed into independent cells.

Every table in the paper is embarrassingly parallel: one verified trace
per loop drives every machine variant, and each (kernel, machine-spec,
config) simulation is independent of every other.  A :class:`Cell` names
one such simulation plus where its value lands in the finished table; an
:class:`ExperimentPlan` is the full ordered decomposition of one table.

The engine (:mod:`repro.harness.engine`) evaluates cells -- serially or
over a process pool -- and merges them back deterministically: grouped
values are harmonic-meaned in plan order, so parallel output is
bit-identical to serial output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..kernels import (
    ALL_LOOPS,
    SCALAR_LOOPS,
    VECTORIZABLE_LOOPS,
    classify,
    default_size,
)
from .paper import BUS_LABELS, CONFIG_NAMES, RUU_SIZES, RUU_UNITS

Sizes = Optional[Mapping[int, int]]

#: Pseudo machine spec marking a limits cell (handled by the engine
#: directly, not by the simulator registry).
LIMITS_MACHINE = "limits"

_CLASS_LOOPS: Dict[str, Tuple[int, ...]] = {
    "scalar": tuple(SCALAR_LOOPS),
    "vectorizable": tuple(VECTORIZABLE_LOOPS),
}

#: Table column bus label -> registry bus token.
_BUS_TOKENS = {"N-Bus": "nbus", "1-Bus": "1bus"}

#: Table 1 row label -> registry spec for the four basic organisations.
_TABLE1_MACHINES: Tuple[Tuple[str, str], ...] = (
    ("Simple", "simple"),
    ("SerialMemory", "serialmemory"),
    ("NonSegmented", "nonsegmented"),
    ("CRAY-like", "cray"),
)


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    Attributes:
        source: canonical trace-source spec of the trace the cell
            replays (``kernel:5:n=200``, ``branchy:seed=7:n=2000``); it
            names the sweep group, the trace key and the result key.
        machine: simulator registry spec, or :data:`LIMITS_MACHINE`.
        config: machine configuration name (``"M11BR5"`` ...).
        row: row label the cell's value(s) contribute to.
        columns: column label(s) the cell fills -- one for a simulation
            cell, the three limit columns for a limits cell.
        serial: for limits cells, include WAW serialisation.
        metric: which value of the simulation feeds the column --
            ``"rate"`` (instructions/cycles, the default) or the name of
            a ``result.detail`` entry (``"prediction_accuracy"``,
            ``"vp_accuracy"``).  Not part of the cache identity: a rate
            cell and an accuracy cell over the same simulation share one
            stored record.
    """

    source: str
    machine: str
    config: str
    row: str
    columns: Tuple[str, ...]
    serial: bool = False
    metric: str = "rate"

    @property
    def is_limits(self) -> bool:
        return self.machine == LIMITS_MACHINE


@dataclass(frozen=True)
class ExperimentPlan:
    """An ordered, fully independent decomposition of one table.

    ``aggregators`` overrides the per-column fold: grouped values merge
    with the harmonic mean by default (rates), ``("col", "amean")``
    switches a column to the arithmetic mean (accuracies, which may be
    zero).  When ``speedup_base`` is set, every column named in
    ``speedup_columns`` is divided by the row's base-column mean after
    folding, turning absolute rates into speedups over the base machine.
    All three are plain picklable data so plans still cross process
    boundaries unchanged.
    """

    table_id: str
    title: str
    columns: Tuple[str, ...]
    rows: Tuple[str, ...]
    cells: Tuple[Cell, ...]
    aggregators: Tuple[Tuple[str, str], ...] = ()
    speedup_base: Optional[str] = None
    speedup_columns: Tuple[str, ...] = ()


def _source(loop: int, sizes: Sizes) -> str:
    """The kernel trace-source spec of *loop* at its resolved size."""
    if sizes is not None and loop in sizes:
        n = sizes[loop]
    else:
        n = default_size(loop)
    return f"kernel:{loop}:n={n}"


# ----------------------------------------------------------------------
# Plan builders, one per table
# ----------------------------------------------------------------------

def plan_table1(sizes: Sizes = None) -> ExperimentPlan:
    rows = []
    cells = []
    for class_label, loops in _CLASS_LOOPS.items():
        for sim_label, spec in _TABLE1_MACHINES:
            row = f"{class_label}/{sim_label}"
            rows.append(row)
            for config in CONFIG_NAMES:
                for loop in loops:
                    cells.append(Cell(
                        source=_source(loop, sizes),
                        machine=spec,
                        config=config,
                        row=row,
                        columns=(config,),
                    ))
    return ExperimentPlan(
        table_id="table1",
        title="Table 1: instruction issue rates for basic machine organisations",
        columns=CONFIG_NAMES,
        rows=tuple(rows),
        cells=tuple(cells),
    )


def plan_table2(sizes: Sizes = None) -> ExperimentPlan:
    columns = ("pseudo-dataflow", "resource", "actual")
    rows = []
    cells = []
    # Paper row order: scalar Pure, vectorizable Pure, scalar Serial,
    # vectorizable Serial.
    for serial in (False, True):
        prefix = "Serial" if serial else "Pure"
        for class_label, loops in _CLASS_LOOPS.items():
            for config in CONFIG_NAMES:
                row = f"{class_label}/{prefix} {config}"
                rows.append(row)
                for loop in loops:
                    cells.append(Cell(
                        source=_source(loop, sizes),
                        machine=LIMITS_MACHINE,
                        config=config,
                        row=row,
                        columns=columns,
                        serial=serial,
                    ))
    return ExperimentPlan(
        table_id="table2",
        title="Table 2: pseudo-dataflow and resource limits",
        columns=columns,
        rows=tuple(rows),
        cells=tuple(cells),
    )


def _plan_multi_issue(
    table_id: str,
    title: str,
    class_label: str,
    spec_head: str,
    sizes: Sizes,
    stations: Sequence[int],
) -> ExperimentPlan:
    loops = _CLASS_LOOPS[class_label]
    columns = tuple(
        f"{config} {bus}" for config in CONFIG_NAMES for bus in BUS_LABELS
    )
    rows = []
    cells = []
    for n_stations in stations:
        row = str(n_stations)
        rows.append(row)
        for config in CONFIG_NAMES:
            for bus_label in BUS_LABELS:
                spec = f"{spec_head}:{n_stations}:{_BUS_TOKENS[bus_label]}"
                for loop in loops:
                    cells.append(Cell(
                        source=_source(loop, sizes),
                        machine=spec,
                        config=config,
                        row=row,
                        columns=(f"{config} {bus_label}",),
                    ))
    return ExperimentPlan(
        table_id=table_id,
        title=title,
        columns=columns,
        rows=tuple(rows),
        cells=tuple(cells),
    )


def plan_table3(
    sizes: Sizes = None, stations: Sequence[int] = range(1, 9)
) -> ExperimentPlan:
    return _plan_multi_issue(
        "table3",
        "Table 3: multiple issue units, sequential issue of scalar code",
        "scalar", "inorder", sizes, stations,
    )


def plan_table4(
    sizes: Sizes = None, stations: Sequence[int] = range(1, 9)
) -> ExperimentPlan:
    return _plan_multi_issue(
        "table4",
        "Table 4: multiple issue units, sequential issue for vectorizable code",
        "vectorizable", "inorder", sizes, stations,
    )


def plan_table5(
    sizes: Sizes = None, stations: Sequence[int] = range(1, 9)
) -> ExperimentPlan:
    return _plan_multi_issue(
        "table5",
        "Table 5: multiple issue units, out-of-order issue for scalar code",
        "scalar", "ooo", sizes, stations,
    )


def plan_table6(
    sizes: Sizes = None, stations: Sequence[int] = range(1, 9)
) -> ExperimentPlan:
    return _plan_multi_issue(
        "table6",
        "Table 6: multiple issue units, out-of-order issue for vectorizable loops",
        "vectorizable", "ooo", sizes, stations,
    )


def _plan_ruu(
    table_id: str,
    title: str,
    class_label: str,
    sizes: Sizes,
    ruu_sizes: Sequence[int],
    units: Sequence[int],
) -> ExperimentPlan:
    loops = _CLASS_LOOPS[class_label]
    columns = tuple(f"x{u} {bus}" for u in units for bus in BUS_LABELS)
    rows = []
    cells = []
    for config in CONFIG_NAMES:
        for size in ruu_sizes:
            row = f"{config}/R{size}"
            rows.append(row)
            for u in units:
                for bus_label in BUS_LABELS:
                    spec = f"ruu:{u}:{size}:{_BUS_TOKENS[bus_label]}"
                    for loop in loops:
                        cells.append(Cell(
                            source=_source(loop, sizes),
                            machine=spec,
                            config=config,
                            row=row,
                            columns=(f"x{u} {bus_label}",),
                        ))
    return ExperimentPlan(
        table_id=table_id,
        title=title,
        columns=columns,
        rows=tuple(rows),
        cells=tuple(cells),
    )


def plan_table7(
    sizes: Sizes = None,
    ruu_sizes: Sequence[int] = RUU_SIZES,
    units: Sequence[int] = RUU_UNITS,
) -> ExperimentPlan:
    return _plan_ruu(
        "table7",
        "Table 7: multiple issue units with dependency resolution; scalar code",
        "scalar", sizes, ruu_sizes, units,
    )


def plan_table8(
    sizes: Sizes = None,
    ruu_sizes: Sequence[int] = RUU_SIZES,
    units: Sequence[int] = RUU_UNITS,
) -> ExperimentPlan:
    return _plan_ruu(
        "table8",
        "Table 8: multiple issue units with dependency resolution; "
        "vectorizable code",
        "vectorizable", sizes, ruu_sizes, units,
    )


#: Columns of the speculation limit study (tables 9-10): one
#: ``(column label, machine spec, metric)`` triple per column.  The RUU
#: baseline column reports its absolute issue rate; the speculative
#: columns report speedup over that baseline (``speedup_columns``
#: below), and the accuracy columns report the arithmetic-mean predictor
#: / value-predictor hit rate of the machine to their left.
_SPEC_STUDY_COLUMNS: Tuple[Tuple[str, str, str], ...] = (
    ("RUU x4 R50", "ruu:4:50", "rate"),
    ("btfn", "spec:50:btfn", "rate"),
    ("btfn acc", "spec:50:btfn", "prediction_accuracy"),
    ("2bit", "spec:50:2bit", "rate"),
    ("2bit acc", "spec:50:2bit", "prediction_accuracy"),
    ("2bit+vp", "spec:50:2bit:vp=last", "rate"),
    ("vp acc", "spec:50:2bit:vp=last", "vp_accuracy"),
    ("perfect", "spec:50:perfect", "rate"),
)


def _plan_spec_study(
    table_id: str, title: str, class_label: str, sizes: Sizes
) -> ExperimentPlan:
    loops = _CLASS_LOOPS[class_label]
    columns = tuple(label for label, _, _ in _SPEC_STUDY_COLUMNS)
    cells = []
    for config in CONFIG_NAMES:
        for column, machine, metric in _SPEC_STUDY_COLUMNS:
            for loop in loops:
                cells.append(Cell(
                    source=_source(loop, sizes),
                    machine=machine,
                    config=config,
                    row=config,
                    columns=(column,),
                    metric=metric,
                ))
    return ExperimentPlan(
        table_id=table_id,
        title=title,
        columns=columns,
        rows=tuple(CONFIG_NAMES),
        cells=tuple(cells),
        aggregators=(
            ("btfn acc", "amean"),
            ("2bit acc", "amean"),
            ("vp acc", "amean"),
        ),
        speedup_base="RUU x4 R50",
        speedup_columns=("btfn", "2bit", "2bit+vp", "perfect"),
    )


def plan_table9(sizes: Sizes = None) -> ExperimentPlan:
    return _plan_spec_study(
        "table9",
        "Table 9: speculative issue with branch + value prediction; "
        "scalar code (speedup over RUU x4 R50)",
        "scalar", sizes,
    )


def plan_table10(sizes: Sizes = None) -> ExperimentPlan:
    return _plan_spec_study(
        "table10",
        "Table 10: speculative issue with branch + value prediction; "
        "vectorizable code (speedup over RUU x4 R50)",
        "vectorizable", sizes,
    )


def plan_section33(sizes: Sizes = None) -> ExperimentPlan:
    """The Section 3.3 quote: single-issue RUU (R=50, N-Bus) on M11BR5.

    The paper: "the issue rate of an M11BR5 machine with a single issue
    unit can be improved to about 0.72 instructions per cycle for scalar
    code and 0.81 instructions for vectorizable code."  Every cell is
    also a Table 7/8 cell (``x1 N-Bus``, ``M11BR5/R50``), so a store
    that has run those tables answers this plan without a replay.
    """
    cells = tuple(
        Cell(
            source=_source(loop, sizes),
            machine="ruu:1:50:nbus",
            config="M11BR5",
            row=class_label,
            columns=("M11BR5",),
        )
        for class_label, loops in _CLASS_LOOPS.items()
        for loop in loops
    )
    return ExperimentPlan(
        table_id="section33",
        title="Section 3.3: single-issue dependency resolution "
        "(RUU x1 R50 N-Bus)",
        columns=("M11BR5",),
        rows=tuple(_CLASS_LOOPS),
        cells=cells,
    )


#: Machine columns of the per-loop table: ``(column label, spec)``.
_PER_LOOP_MACHINES: Tuple[Tuple[str, str], ...] = (
    ("Simple", "simple"),
    ("CRAY-like", "cray"),
    ("ooo x4", "ooo:4"),
    ("RUU x4 R=50", "ruu:4:50"),
)


def plan_per_loop(sizes: Sizes = None) -> ExperimentPlan:
    """Per-loop issue rates on M11BR5 across the main machine spectrum.

    Not a paper table: the paper reports only class harmonic means, and
    this appendix shows each loop on its own next to its actual
    (dataflow + resource) limit, which is where the class differences
    come from.  Every (row, column) holds one value, so every column
    folds with the arithmetic mean -- the value itself, bit for bit.
    """
    columns = tuple(label for label, _ in _PER_LOOP_MACHINES) + ("actual",)
    rows = []
    cells = []
    for loop in ALL_LOOPS:
        source = _source(loop, sizes)
        row = f"loop {loop:02d} ({classify(loop).value[:6]})"
        rows.append(row)
        for column, machine in _PER_LOOP_MACHINES:
            cells.append(Cell(
                source=source, machine=machine, config="M11BR5", row=row,
                columns=(column,),
            ))
        cells.append(Cell(
            source=source, machine=LIMITS_MACHINE, config="M11BR5", row=row,
            columns=("actual",),
        ))
    return ExperimentPlan(
        table_id="per-loop",
        title="Per-loop issue rates on M11BR5",
        columns=columns,
        rows=tuple(rows),
        cells=tuple(cells),
        aggregators=tuple((column, "amean") for column in columns),
    )


#: Plan id -> plan builder.  Every builder accepts ``sizes`` as its first
#: keyword; tables 3-8 also accept their sweep parameters.
PLAN_BUILDERS: Dict[str, Callable[..., ExperimentPlan]] = {
    "table1": plan_table1,
    "table2": plan_table2,
    "table3": plan_table3,
    "table4": plan_table4,
    "table5": plan_table5,
    "table6": plan_table6,
    "table7": plan_table7,
    "table8": plan_table8,
    "table9": plan_table9,
    "table10": plan_table10,
    "section33": plan_section33,
    "per-loop": plan_per_loop,
}


def build_plan(table_id: str, sizes: Sizes = None, **overrides) -> ExperimentPlan:
    """Build the plan for *table_id* (raises KeyError on unknown ids)."""
    try:
        builder = PLAN_BUILDERS[table_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {table_id!r}; known: {sorted(PLAN_BUILDERS)}"
        ) from None
    return builder(sizes, **overrides)
