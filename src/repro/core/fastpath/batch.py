"""The batch sweep: one call that replays a trace through many specs.

The paper's experiments are sweep-shaped: the same trace replayed
across many machine configurations (the four memory/branch variants of
a table, the oracle's machine set, an issue-width sweep).
:func:`sweep` evaluates one :class:`CompiledTrace` through a whole
sweep in a single call and groups the members whose families share
config-independent work:

* ``ooo``: members of one issue width and WAR policy form one
  :func:`~repro.core.fastpath.python_backend.ooo_replay` call, which
  decodes each fetch buffer's hazard masks once (a buffer plan memoised
  on the compiled trace) and replays them per member;
* ``ruu``: members share the trace's rename plan (memoised the same
  way) and run the one RUU loop per distinct replay -- a replay whose
  RUU never filled serves every smaller RUU its peak still fits
  (counted as ``reused_runs``).
  The reuse still pays next to the loop's steady-state fast-forward:
  the largest RUU settles slowest, so the members it serves would each
  replay their own transient (Tables 7-8 cold: about 2.5-3.6 s with
  the reuse, 4.2-5.5 s without).

Both kernels live in :mod:`~repro.core.fastpath.python_backend` next to
the per-spec loops, which call them with one member; this module only
groups.  Every other family -- scoreboard, cdc6600, in-order, Tomasulo
and the speculative machine -- is served by its per-spec loop inside
the same sweep call, sharing the single compiled trace and counted as
``fallback_runs``.  A family is batched only if its kernel beats
per-spec replay on its own table's sweep shape: the single-issue and
in-order recurrences have no shared analysis to amortise, and
structure-of-arrays kernels for them measured slower than the per-spec
loops (``docs/performance.md``).

Grouping: batched members are bucketed by *structure key* -- the
attributes that shape the shared analysis (the RUU family as a whole;
issue width and WAR policy for the out-of-order machine).  Flags that
only parameterise the per-member recurrence (latency tables, branch
latency, bus wiring) stay per-member inside a group, so a four-config
table row is always one group.  Bit-identity with
``reference_simulate`` is the contract here exactly as for the
per-spec loops; the differential sweep in
``tests/test_fastpath_batch.py`` and the oracle's ``fastpath-dual``
check enforce it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...trace import Trace
from ..result import SimulationResult
from .backends import count_run, family_of
from .ir import UNITS, compile_trace
from .python_backend import (
    FAMILY_LOOPS,
    _result,
    ooo_replay,
    require_scalar,
    ruu_replay,
)

__all__ = ["sweep"]

#: Families the batch kernels cover; the rest fall back to their
#: per-spec loops (still inside the one sweep).
_BATCHED_FAMILIES = frozenset({"ooo", "ruu"})


# ----------------------------------------------------------------------
# RUU dependency resolution (Section 5.3): shared rename plan, reuse
# ----------------------------------------------------------------------

def _sweep_ruu(compiled, group) -> List[SimulationResult]:
    """Every RUU variant over one trace.

    All members share the trace's memoised rename plan
    (:func:`~repro.core.fastpath.python_backend.ruu_plan`) and run the
    one RUU loop (:func:`~repro.core.fastpath.python_backend.ruu_replay`).
    Members that differ only in RUU size are replayed largest first: a
    run whose peak occupancy stayed below the next smaller size never
    found the RUU full, so that size replays it cycle for cycle and takes
    a copy of its result instead of a replay.  Members that agree on
    every timing parameter (``ruu:1:R`` over N-Bus and 1-Bus, whose three
    paths are all one wide) share one replay the same way.  Members
    served from another's replay count as ``reused_runs``.
    """
    classes: Dict[Tuple, List[int]] = {}
    for k, item in enumerate(group):
        machine, config = item.simulator, item.config
        table = config.latencies
        key = (
            tuple(table.latency(unit) for unit in UNITS),
            config.branch_latency,
            machine.issue_units,
            machine.path_width,
            machine.bypass,
            machine.ordered_memory,
            machine.fu_copies,
        )
        classes.setdefault(key, []).append(k)

    results: List[SimulationResult] = [None] * len(group)  # type: ignore
    for members in classes.values():
        members.sort(key=lambda k: -group[k].simulator.ruu_size)
        tracking = any(group[k].record is not None for k in members)
        run = None
        run_size = 0
        for k in members:
            item = group[k]
            size = item.simulator.ruu_size
            if run is not None and (run.peak < size or size == run_size):
                count_run("batch", "reused_runs")
            else:
                run = ruu_replay(compiled, item.simulator, item.config,
                                 tracking)
                run_size = size
            if item.record is not None:
                item.record.extend(run.schedule)
            results[k] = _result(compiled, item.simulator, item.config,
                                 run.cycles, dict(run.detail))
    return results


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------

def sweep(trace: Trace, items) -> List[SimulationResult]:
    """Replay *trace* through every fast-eligible sweep member.

    Members are grouped by structure key; ooo and RUU groups run their
    kernels (``batch.fast_runs``), every other member its per-spec loop
    (``batch.fallback_runs``).  Results come back in item order.
    """
    compiled = compile_trace(trace)
    families = [family_of(item.simulator) for item in items]
    # Mirror per-item dispatch: on a vector trace the first
    # non-scoreboard machine in item order raises the scalar-only error.
    for item, family in zip(items, families):
        if family != "scoreboard":
            require_scalar(compiled, item.simulator)
    count_run("batch", "sweeps")

    groups: Dict[Tuple, List[int]] = {}
    for i, (item, family) in enumerate(zip(items, families)):
        if family not in _BATCHED_FAMILIES:
            key: Tuple = ("fallback",)
        elif family == "ooo":
            key = (
                "ooo",
                item.simulator.issue_units,
                item.simulator.enforce_war,
            )
        else:
            key = (family,)
        groups.setdefault(key, []).append(i)

    results: List[SimulationResult] = [None] * len(items)  # type: ignore
    for key, indices in groups.items():
        group = [items[i] for i in indices]
        family = key[0]
        if family == "fallback":
            count_run("batch", "fallback_runs", len(group))
            batch = [
                FAMILY_LOOPS[families[i]](
                    items[i].simulator, trace, items[i].config, items[i].record
                )
                for i in indices
            ]
        else:
            count_run("batch", "fast_runs", len(group))
            if family == "ruu":
                batch = _sweep_ruu(compiled, group)
            else:
                batch = ooo_replay(compiled, group)
        for i, result in zip(indices, batch):
            results[i] = result
    return results
