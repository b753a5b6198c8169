"""Fast replay: compiled trace IR, per-family loops and the batch sweep.

The package splits the fast path into three layers:

* :mod:`~repro.core.fastpath.ir` -- :func:`compile_trace` lowers a
  :class:`~repro.trace.Trace` once into flat parallel tuples of small
  integers (functional-unit index, register ids, branch/vector/bus
  flags), cached per trace object.  Machine- and config-independent:
  one compilation serves every machine variant and every replay.
* :mod:`~repro.core.fastpath.backends` -- the uniform gating rule
  (:func:`fast_eligible`: ``REPRO_FASTPATH`` / :func:`set_enabled` and a
  compiled family) and the run counters behind :func:`stats`.
* the replay loops -- :mod:`~repro.core.fastpath.python_backend`: one
  compiled loop per family (``FAMILY_LOOPS``), including the
  out-of-order and RUU kernels; :mod:`~repro.core.fastpath.batch`: the
  sweep, which groups out-of-order and RUU members so one kernel call
  shares their config-independent analysis.

A machine picks its loop in one place,
:meth:`repro.core.base.CompiledSimulator.simulate`: the compiled loop
when :func:`fast_eligible` allows it, else its reference loop.  Events
come only from the reference loops, through ``simulate_observed``.
:func:`simulate_sweep` is the sweep entry point and applies the same
gate per item (ineligible members run their machine's own ``simulate``,
i.e. the reference loop), compiles the trace once, and hands the
eligible members to :func:`batch.sweep`.  The experiment engine
(:mod:`repro.harness.engine`) and the differential oracle
(:mod:`repro.verify.oracle`) route sweep-shaped work through here;
:func:`repro.api.run_sweep` and ``repro sweep`` reach it as an engine
plan.

Bit-identity with ``reference_simulate`` is a hard invariant for every
loop and kernel, enforced by the differential suites
(``tests/test_fastpath_diff.py``, ``tests/test_fastpath_batch.py``),
the oracle's ``fastpath-dual`` check on every ``repro verify`` replay,
and the golden tables (which run with the fast path both on and off);
see ``docs/performance.md``.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ...trace import Trace
from ..result import SimulationResult
from . import backends
from .backends import (
    SweepItem,
    enabled,
    fast_eligible,
    family_of,
    reset_stats,
    set_enabled,
    stats,
)
from .ir import N_REGISTERS, UNITS, CompiledTrace, compile_trace, drop_derived
from . import python_backend
from . import batch

__all__ = [
    "CompiledTrace",
    "N_REGISTERS",
    "SweepItem",
    "UNITS",
    "compile_trace",
    "drop_derived",
    "enabled",
    "fast_eligible",
    "family_of",
    "reset_stats",
    "set_enabled",
    "simulate_sweep",
    "stats",
]


def simulate_sweep(
    trace: Trace,
    items: Sequence[Union[SweepItem, tuple]],
) -> List[SimulationResult]:
    """Replay *trace* through every (simulator, config) sweep member.

    Items are :class:`SweepItem` instances or ``(simulator, config)`` /
    ``(simulator, config, record)`` tuples; results come back in item
    order.  Gating is per item and identical to the machines' own
    dispatch: a member whose simulator has no compiled loop, or runs
    with the fast path disabled (``REPRO_FASTPATH=0`` /
    :func:`set_enabled`), is served by its own ``simulate`` -- the
    reference path -- while the rest share one compiled trace through
    :func:`batch.sweep`.
    """
    resolved = [
        item if isinstance(item, SweepItem) else SweepItem(*item)
        for item in items
    ]
    results: List[SimulationResult] = [None] * len(resolved)  # type: ignore
    fast_indices: List[int] = []
    for index, item in enumerate(resolved):
        if fast_eligible(item.simulator):
            fast_indices.append(index)
        else:
            results[index] = item.simulator.simulate(trace, item.config)
    if fast_indices:
        subset = [resolved[index] for index in fast_indices]
        for index, result in zip(fast_indices, batch.sweep(trace, subset)):
            results[index] = result
    return results
