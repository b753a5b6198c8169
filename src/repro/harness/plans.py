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
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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


def _source(loop: int, sizes: Sizes, default: Optional[int] = None) -> str:
    """The kernel trace-source spec of *loop* at its resolved size:
    *sizes*, else *default*, else the loop's default size."""
    if sizes is not None and loop in sizes:
        n = sizes[loop]
    elif default is not None:
        n = default
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


def _per_row_plan(
    table_id: str,
    title: str,
    rows: Sequence[Tuple[str, str]],
    machines: Sequence[Tuple[str, str]],
) -> ExperimentPlan:
    """One trace source per row, on M11BR5: one column per
    ``(column label, spec)`` machine, then the source's ``actual``
    (dataflow + resource) limit.  Every (row, column) holds one value,
    so every column folds with the arithmetic mean -- the value itself,
    bit for bit."""
    columns = tuple(label for label, _ in machines) + ("actual",)
    cells = []
    for row, source in rows:
        for column, machine in machines:
            cells.append(Cell(
                source=source, machine=machine, config="M11BR5", row=row,
                columns=(column,),
            ))
        cells.append(Cell(
            source=source, machine=LIMITS_MACHINE, config="M11BR5", row=row,
            columns=("actual",),
        ))
    return ExperimentPlan(
        table_id=table_id,
        title=title,
        columns=columns,
        rows=tuple(row for row, _ in rows),
        cells=tuple(cells),
        aggregators=tuple((column, "amean") for column in columns),
    )


def plan_per_loop(sizes: Sizes = None) -> ExperimentPlan:
    """Per-loop issue rates on M11BR5 across the main machine spectrum.

    Not a paper table: the paper reports only class harmonic means, and
    this appendix shows each loop on its own next to its actual
    (dataflow + resource) limit, which is where the class differences
    come from.
    """
    return _per_row_plan(
        "per-loop",
        "Per-loop issue rates on M11BR5",
        [
            (f"loop {loop:02d} ({classify(loop).value[:6]})",
             _source(loop, sizes))
            for loop in ALL_LOOPS
        ],
        _PER_LOOP_MACHINES,
    )


# ----------------------------------------------------------------------
# Extension studies: questions the paper raises but does not measure
# ----------------------------------------------------------------------

#: The configurations the class-mean studies report: the paper's
#: slowest and fastest machine variants.
_STUDY_CONFIGS: Tuple[str, ...] = ("M11BR5", "M5BR2")

#: The machine spectrum of the per-row studies: ``(column, spec)``.
_SPECTRUM: Tuple[Tuple[str, str], ...] = (
    ("CRAY-like", "cray"),
    ("ooo x4", "ooo:4"),
    ("RUU x4 R=50", "ruu:4:50"),
)


def _class_cells(
    row: str,
    machine: str,
    config: str,
    sizes: Sizes,
    *,
    variant: str = "",
    per_config: bool = True,
) -> List[Cell]:
    """Rate cells of *machine* over both loop classes, one column per
    class (``"scalar M11BR5"``, or ``"scalar"`` without *per_config*),
    harmonic-meaned over the class's loops.  *variant* appends kernel
    options to every source (``":schedule=off"``)."""
    cells = []
    for class_label, loops in _CLASS_LOOPS.items():
        column = f"{class_label} {config}" if per_config else class_label
        for loop in loops:
            cells.append(Cell(
                source=_source(loop, sizes) + variant,
                machine=machine,
                config=config,
                row=row,
                columns=(column,),
            ))
    return cells


def _class_config_plan(
    table_id: str,
    title: str,
    rows: Sequence[Tuple[str, str, str]],
    sizes: Sizes,
) -> ExperimentPlan:
    """Class harmonic means on M11BR5 and M5BR2, one row per
    ``(row label, machine spec, kernel variant)``."""
    cells = [
        cell
        for row, machine, variant in rows
        for config in _STUDY_CONFIGS
        for cell in _class_cells(row, machine, config, sizes, variant=variant)
    ]
    return ExperimentPlan(
        table_id=table_id,
        title=title,
        columns=tuple(
            f"{class_label} {config}"
            for class_label in _CLASS_LOOPS
            for config in _STUDY_CONFIGS
        ),
        rows=tuple(row for row, _, _ in rows),
        cells=tuple(cells),
    )


def _class_column_plan(
    table_id: str,
    title: str,
    rows: Sequence[Tuple[str, str, str]],
    sizes: Sizes,
) -> ExperimentPlan:
    """Class harmonic means, one column per class, one row per
    ``(row label, machine spec, config)``."""
    return ExperimentPlan(
        table_id=table_id,
        title=title,
        columns=tuple(_CLASS_LOOPS),
        rows=tuple(row for row, _, _ in rows),
        cells=tuple(
            cell
            for row, machine, config in rows
            for cell in _class_cells(
                row, machine, config, sizes, per_config=False
            )
        ),
    )


#: Ablation rows: the paper's machine, then the same machine with one
#: modelling choice flipped.  ``(row label, machine spec, kernel variant)``.
_ABLATION_ROWS: Tuple[Tuple[str, str, str], ...] = (
    # The paper elides WAR hazards; correct hardware must enforce them.
    ("ooo x4", "ooo:4", ""),
    ("ooo x4, WAR ignored", "ooo:4:war=off", ""),
    # The paper assumes a bypass network and tracks register
    # dependences only, never memory order.
    ("RUU x4 R=50", "ruu:4:50", ""),
    ("RUU x4 R=50, no bypass", "ruu:4:50:bypass=off", ""),
    ("RUU x4 R=50, ordered memory", "ruu:4:50:mem=ordered", ""),
    # Section 5.1: X-Bar results are "essentially the same" as N-Bus.
    ("in-order x4, X-Bar", "inorder:4:xbar", ""),
    ("in-order x4, N-Bus", "inorder:4", ""),
    ("in-order x4, 1-Bus", "inorder:4:1bus", ""),
    # The paper's traces came from CFT, which scheduled the code.
    ("CRAY-like", "cray", ""),
    ("CRAY-like, naive code", "cray", ":schedule=off"),
)


def plan_ablations(sizes: Sizes = None) -> ExperimentPlan:
    """The modelling choices DESIGN.md calls out, each flipped once."""
    return _class_config_plan(
        "ablations",
        "Ablations: one modelling choice flipped per row",
        _ABLATION_ROWS, sizes,
    )


#: Predictors on the speculative machine (x4, window 50; see
#: docs/speculation.md), under the paper's non-speculative RUU row.
_BRANCH_PREDICTION_ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("RUU x4 R=50 (paper)", "ruu:4:50", ""),
    ("no prediction", "spec:50:none:units=4", ""),
    ("always-taken", "spec:50:always:units=4", ""),
    ("backward-taken", "spec:50:btfn:units=4", ""),
    ("1-bit", "spec:50:1bit:units=4", ""),
    ("2-bit", "spec:50:2bit:units=4", ""),
    ("2-bit, 4-cycle penalty", "spec:50:2bit:units=4:rp=4", ""),
)


def plan_branch_prediction(sizes: Sizes = None) -> ExperimentPlan:
    """What guessing recovers: the paper's machines never predict
    branches (Section 2).  The spec family is contention-free past
    issue, so predictor gains read against its ``no prediction`` row."""
    return _class_config_plan(
        "branch-prediction",
        "Branch prediction on the speculative machine (x4, window 50)",
        _BRANCH_PREDICTION_ROWS, sizes,
    )


def plan_calibration(sizes: Sizes = None) -> ExperimentPlan:
    """Table 1's CRAY-like row with CFT-style explicit address
    arithmetic: how much of the paper-vs-measured gap is code bulk."""
    return _class_config_plan(
        "calibration",
        "Calibration: encoding bulk vs the paper's CRAY-like row",
        (
            ("folded (repo default)", "cray", ""),
            ("explicit addressing", "cray", ":addressing=explicit"),
        ),
        sizes,
    )


#: Memory systems behind the CRAY-like core, at branch time 5:
#: ``(row label, machine spec, config)``.  The paper's flat-latency
#: idealisations are the CRAY-like machine itself at M11 and M5.
_MEMORY_ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("ideal M11 (paper)", "cray", "M11BR5"),
    ("banked 16x4, latency 11", "banked:16", "M11BR5"),
) + tuple(
    (f"cache {words}w (hit 5 / miss 11)", f"cache:{words}", "M11BR5")
    for words in (256, 1024, 4096, 16384)
) + (
    ("ideal M5 (paper)", "cray", "M5BR5"),
)


def plan_memory_system(sizes: Sizes = None) -> ExperimentPlan:
    """What earns the paper's "fast memory" (M5) idealisation: a real
    cache of growing size, and CRAY-1-style bank conflicts."""
    return _class_column_plan(
        "memory-system",
        "Memory-system study (CRAY-like core, BR5)",
        _MEMORY_ROWS, sizes,
    )


#: Section 3.3's blockage-removal spectrum, one issue unit each:
#: ``(row label, machine spec, config)``.
_SPECTRUM_SCHEMES: Tuple[Tuple[str, str, str], ...] = (
    ("issue blocking (CRAY-like)", "cray", "M11BR5"),
    ("CDC 6600-style", "cdc6600", "M11BR5"),
    ("Tomasulo-style (RS=4, CDB=1)", "tomasulo", "M11BR5"),
    ("RUU x1 R=50", "ruu:1:50:nbus", "M11BR5"),
)


def plan_section33_spectrum(sizes: Sizes = None) -> ExperimentPlan:
    """The schemes Section 3.3 places around its RUU quote -- issue
    blocking, the CDC 6600 and the IBM 360/91 (Tomasulo) -- with one
    issue unit each on M11BR5.  The RUU row is the ``section33`` plan's
    cells, the blocking row Table 1's."""
    return _class_column_plan(
        "section33-spectrum",
        "Section 3.3: single-issue dependency resolution on M11BR5",
        _SPECTRUM_SCHEMES, sizes,
    )


def plan_fu_duplication(sizes: Sizes = None) -> ExperimentPlan:
    """Section 4's one-of-each resource assumption relaxed: every
    functional unit, the memory port included, duplicated on the RUU
    machine (x4, R=100, M11BR5)."""
    return _class_column_plan(
        "fu-duplication",
        "Functional-unit duplication on the RUU machine (x4, R=100, M11BR5)",
        [("fu=1", "ruu:4:100", "M11BR5")] + [
            (f"fu={copies}", f"ruu:4:100:fu={copies}", "M11BR5")
            for copies in (2, 4)
        ],
        sizes,
    )


#: Loop -> size with trip counts divisible by every unroll factor.
_UNROLL_SIZES: Dict[int, int] = {1: 128, 5: 201, 7: 80, 11: 257, 12: 256}
_UNROLL_FACTORS: Tuple[int, ...] = (1, 2, 4)


def plan_unrolling(sizes: Sizes = None) -> ExperimentPlan:
    """Section 4: "loop unrolling will in some cases shorten the
    critical path".  Loops 1, 5, 7, 11 and 12 unrolled x1/x2/x4 at
    sizes whose trip counts divide by 4 (*sizes* overrides them)."""
    rows = []
    for loop, n in _UNROLL_SIZES.items():
        for factor in _UNROLL_FACTORS:
            unroll = f":unroll={factor}" if factor != 1 else ""
            rows.append(
                (f"loop {loop:02d} x{factor}", _source(loop, sizes, n) + unroll)
            )
    return _per_row_plan(
        "unrolling",
        "Loop unrolling vs the dataflow limit (M11BR5)",
        rows,
        (("CRAY-like", "cray"), ("RUU x4 R=100", "ruu:4:100")),
    )


def plan_workload_characteristics(sizes: Sizes = None) -> ExperimentPlan:
    """Workload structure as axes: synthetic loops sweeping the number
    of independent dependence chains (25% memory, seed 11) and the
    memory fraction (4 chains, seed 12).  *sizes* does not apply."""
    base = "synthetic:n=80:body=24"
    rows = [
        (f"chains={chains}", f"{base}:mem=0.25:chains={chains}:seed=11")
        for chains in (1, 2, 3, 4)
    ] + [
        (f"mem={percent}%", f"{base}:mem={fraction}:chains=4:seed=12")
        for percent, fraction in ((0, "0"), (25, "0.25"), (50, "0.5"),
                                  (75, "0.75"))
    ]
    return _per_row_plan(
        "workload-characteristics",
        "Issue methods vs workload structure (M11BR5, synthetic loops)",
        rows, _SPECTRUM,
    )


def plan_extended_kernels(sizes: Sizes = None) -> ExperimentPlan:
    """Livermore kernels 18, 19, 21 and 24 (:mod:`repro.kernels.extended`)
    through the machine spectrum plus the speculative machine."""
    from ..kernels.extended import EXTENDED_LOOPS, EXTENDED_SIZES

    rows = [
        (f"kernel {loop}", _source(loop, sizes, EXTENDED_SIZES[loop]))
        for loop in EXTENDED_LOOPS
    ]
    return _per_row_plan(
        "extended-kernels",
        "Extended Livermore kernels (M11BR5)",
        rows,
        _SPECTRUM + (("spec x4 2-bit", "spec:50:2bit:units=4"),),
    )


#: Vectorisation columns: ``(column, machine, config, vector source)``.
#: Every value is a cycle count; ``speedup`` is scalar over vector
#: cycles on M11 (``speedup_base``).
_VECTOR_COLUMNS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("scalar M11", "cray", "M11BR5", False),
    ("vector M11", "cray", "M11BR5", True),
    ("no-chain", "cray-unchained", "M11BR5", True),
    ("vector M5", "cray", "M5BR5", True),
    ("speedup", "cray", "M11BR5", False),
)


def plan_vectorization(sizes: Sizes = None) -> ExperimentPlan:
    """The vector unit the paper never uses: the vectorised encodings of
    loops 1, 7 and 12 on the CRAY-like machine, with and without
    chaining, against their scalar encodings (cycles)."""
    rows = []
    cells = []
    for loop in (1, 7, 12):
        row = f"loop {loop:02d}"
        rows.append(row)
        for column, machine, config, vector in _VECTOR_COLUMNS:
            cells.append(Cell(
                source=_source(loop, sizes) + (":vector=on" if vector else ""),
                machine=machine,
                config=config,
                row=row,
                columns=(column,),
                metric="tlm.cycles",
            ))
    columns = tuple(column for column, _, _, _ in _VECTOR_COLUMNS)
    return ExperimentPlan(
        table_id="vectorization",
        title="Vectorisation study (CRAY-like machine, cycles)",
        columns=columns,
        rows=tuple(rows),
        cells=tuple(cells),
        aggregators=tuple((column, "amean") for column in columns),
        speedup_base="vector M11",
        speedup_columns=("speedup",),
    )


#: Plan id -> plan builder: the paper's tables, then the extension
#: studies.  Every builder accepts ``sizes`` as its first keyword; tables
#: 3-8 also accept their sweep parameters.
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
    "section33-spectrum": plan_section33_spectrum,
    "ablations": plan_ablations,
    "unrolling": plan_unrolling,
    "memory-system": plan_memory_system,
    "branch-prediction": plan_branch_prediction,
    "fu-duplication": plan_fu_duplication,
    "vectorization": plan_vectorization,
    "workload-characteristics": plan_workload_characteristics,
    "calibration": plan_calibration,
    "extended-kernels": plan_extended_kernels,
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
