"""Descriptive statistics over dynamic traces.

These are used by the resource-limit computation (functional-unit usage
counts), by tests (instruction-mix sanity checks on the kernels) and by the
harness reports.

Two statistic families live here:

* :func:`trace_stats` -- instruction-mix summaries over the high-level
  trace records (opcodes, kinds, parcel widths);
* :func:`ir_statistics` -- dependence and demand statistics over the
  *compiled* IR (:mod:`repro.core.fastpath.ir`), the exact lowering every
  fast loop and limit computation replays.  These feed the analytic
  design-space estimator (:mod:`repro.explore.model`, whose cached
  anchors record is built from them) and the per-source summaries
  (``repro sources --spec``, :func:`repro.api.source_stats`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping

from ..isa import FunctionalUnit, OpKind, Opcode
from ..isa.encoding import mean_parcels
from .record import Trace

@dataclass(frozen=True)
class TraceStats:
    """Instruction-mix summary of one dynamic trace.

    Attributes:
        name: trace name.
        total: dynamic instruction count.
        by_unit: dynamic instruction count per functional unit.
        by_opcode: dynamic instruction count per opcode.
        by_kind: dynamic instruction count per opcode kind.
        branches: dynamic branch count.
        taken_branches: dynamic taken-branch count.
        loads: dynamic load count.
        stores: dynamic store count.
        mean_parcels: average instruction width in parcels.
        vector_instructions: dynamic vector-instruction count (extension).
        vector_elements: total elements processed by vector instructions.
    """

    name: str
    total: int
    by_unit: Mapping[FunctionalUnit, int]
    by_opcode: Mapping[Opcode, int]
    by_kind: Mapping[OpKind, int]
    branches: int
    taken_branches: int
    loads: int
    stores: int
    mean_parcels: float
    vector_instructions: int = 0
    vector_elements: int = 0

    @property
    def memory_references(self) -> int:
        """Dynamic loads + stores."""
        return self.loads + self.stores

    @property
    def memory_fraction(self) -> float:
        """Fraction of dynamic instructions that reference memory."""
        return self.memory_references / self.total if self.total else 0.0

    @property
    def branch_fraction(self) -> float:
        return self.branches / self.total if self.total else 0.0

    def unit_fraction(self, unit: FunctionalUnit) -> float:
        """Fraction of dynamic instructions executed by *unit*."""
        return self.by_unit.get(unit, 0) / self.total if self.total else 0.0


def trace_stats(trace: Trace) -> TraceStats:
    """Compute the instruction-mix summary of *trace*."""
    by_unit: Counter = Counter()
    by_opcode: Counter = Counter()
    by_kind: Counter = Counter()
    branches = 0
    taken = 0
    loads = 0
    stores = 0
    vector_instructions = 0
    vector_elements = 0

    for entry in trace:
        instr = entry.instruction
        by_unit[instr.unit] += 1
        by_opcode[instr.opcode] += 1
        by_kind[instr.kind] += 1
        if instr.is_branch:
            branches += 1
            if entry.taken:
                taken += 1
        elif instr.is_load:
            loads += 1
        elif instr.is_store:
            stores += 1
        if instr.is_vector:
            vector_instructions += 1
            vector_elements += entry.vector_length or 0
            if instr.kind is OpKind.VECTOR_LOAD:
                loads += 1
            elif instr.kind is OpKind.VECTOR_STORE:
                stores += 1

    return TraceStats(
        name=trace.name,
        total=len(trace),
        by_unit=dict(by_unit),
        by_opcode=dict(by_opcode),
        by_kind=dict(by_kind),
        branches=branches,
        taken_branches=taken,
        loads=loads,
        stores=stores,
        mean_parcels=mean_parcels(trace.instructions),
        vector_instructions=vector_instructions,
        vector_elements=vector_elements,
    )


def format_stats(stats: TraceStats) -> str:
    """Human-readable rendering of a :class:`TraceStats`."""
    lines = [
        f"trace {stats.name}: {stats.total} dynamic instructions",
        f"  memory references: {stats.memory_references} "
        f"({stats.memory_fraction:.1%})",
        f"  branches: {stats.branches} ({stats.branch_fraction:.1%}), "
        f"{stats.taken_branches} taken",
        f"  mean width: {stats.mean_parcels:.2f} parcels",
        "  per functional unit:",
    ]
    if stats.vector_instructions:
        lines.insert(
            -1,
            f"  vector: {stats.vector_instructions} instructions / "
            f"{stats.vector_elements} elements",
        )
    for unit, count in sorted(
        stats.by_unit.items(), key=lambda item: -item[1]
    ):
        lines.append(f"    {unit.value:<26} {count:>8} ({count / stats.total:.1%})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Compiled-IR statistics (the analytic estimator's inputs)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IRStats:
    """Dependence and functional-unit demand summary of one compiled trace.

    Computed in a single walk over the compiled IR tuples
    (:func:`repro.core.fastpath.compile_trace`), so the numbers describe
    exactly what the simulators and the limit computations see.  This is
    the config-independent half of the analytic estimator's inputs; the
    config-dependent anchors (serial/dataflow/resource limits) are
    derived in :mod:`repro.explore.model`.

    Attributes:
        name: trace name.
        length: dynamic instruction count.
        branch_fraction: branches / length.
        memory_fraction: memory-port instructions / length.
        vector_fraction: vector instructions / length.
        mean_dependence_distance: mean over instructions with at least
            one in-trace producer of the distance (dynamic instructions)
            to the *nearest* producer of any source register.
        p50_dependence_distance: median of the same nearest-producer
            distances (nearest-rank method; 0.0 with no dependents).
        p90_dependence_distance: 90th percentile of the distances.
        dependent_fraction: instructions with an in-trace producer /
            length.
        bus_fraction: instructions that write their result over a result
            bus / length (the 1-bus completion bottleneck's demand).
        unit_counts: functional-unit name -> dynamic instruction count.
        unit_occupancy: functional-unit name -> busy-cycle demand at one
            op per cycle (vector operations occupy their unit once per
            element), exactly as the resource limit counts it.
    """

    name: str
    length: int
    branch_fraction: float
    memory_fraction: float
    vector_fraction: float
    mean_dependence_distance: float
    p50_dependence_distance: float
    p90_dependence_distance: float
    dependent_fraction: float
    bus_fraction: float
    unit_counts: Mapping[str, int]
    unit_occupancy: Mapping[str, int]

    @property
    def fu_demand(self) -> Dict[str, float]:
        """Functional-unit name -> fraction of dynamic instructions
        executed by that unit (``unit_counts / length``, same order)."""
        return {
            unit: count / self.length
            for unit, count in self.unit_counts.items()
        }


def _nearest_rank(sorted_values: List[int], quantile: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(quantile * 1000) * len(sorted_values) // 1000))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def ir_statistics(trace: Trace) -> IRStats:
    """Compute the :class:`IRStats` summary of *trace* from its compiled IR."""
    from ..core.fastpath.ir import UNITS, compile_trace

    compiled = compile_trace(trace)
    n = compiled.n
    last_writer: Dict[int, int] = {}
    distances: List[int] = []
    branches = 0
    memory = 0
    vector = 0
    bus_writes = 0
    unit_counts = [0] * len(UNITS)
    unit_occupancy = [0] * len(UNITS)
    memory_unit = next(i for i, u in enumerate(UNITS) if u.name == "MEMORY")

    for index, op in enumerate(compiled.ops):
        unit, dest, srcs, is_branch, _taken, is_vector, vl, uses_bus, _c = op
        unit_counts[unit] += 1
        unit_occupancy[unit] += (vl if is_vector else 1) or 1
        if is_branch:
            branches += 1
        if unit == memory_unit:
            memory += 1
        if is_vector:
            vector += 1
        if uses_bus:
            bus_writes += 1
        nearest = None
        for src in srcs:
            producer = last_writer.get(src)
            if producer is not None:
                distance = index - producer
                if nearest is None or distance < nearest:
                    nearest = distance
        if nearest is not None:
            distances.append(nearest)
        if dest >= 0:
            last_writer[dest] = index

    distances.sort()
    dependent = len(distances)
    return IRStats(
        name=trace.name,
        length=n,
        branch_fraction=branches / n,
        memory_fraction=memory / n,
        vector_fraction=vector / n,
        mean_dependence_distance=(
            sum(distances) / dependent if dependent else 0.0
        ),
        p50_dependence_distance=_nearest_rank(distances, 0.5),
        p90_dependence_distance=_nearest_rank(distances, 0.9),
        dependent_fraction=dependent / n,
        bus_fraction=bus_writes / n,
        unit_counts={
            UNITS[i].value: unit_counts[i]
            for i in range(len(UNITS))
            if unit_counts[i]
        },
        unit_occupancy={
            UNITS[i].value: unit_occupancy[i]
            for i in range(len(UNITS))
            if unit_occupancy[i]
        },
    )
