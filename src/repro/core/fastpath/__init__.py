"""Fast replay: compiled trace IR, per-family loops and the sweep.

The package splits the fast path into three layers:

* :mod:`~repro.core.fastpath.ir` -- :func:`compile_trace` lowers a
  :class:`~repro.trace.Trace` once into flat parallel tuples of small
  integers (functional-unit index, register ids, branch/vector/bus
  flags), cached per trace object.  Machine- and config-independent:
  one compilation serves every machine variant and every replay.
* :mod:`~repro.core.fastpath.backends` -- the uniform gating rule
  (:func:`fast_eligible`: ``REPRO_FASTPATH`` / :func:`set_enabled` and a
  compiled family) and the run counters behind :func:`stats`.
* :mod:`~repro.core.fastpath.python_backend` -- the replay loops: one
  compiled loop per family (``FAMILY_LOOPS``), and ``ruu_sweep``, the
  RUU size rule.

A machine picks its loop in one place,
:meth:`repro.core.base.CompiledSimulator.simulate`: the compiled loop
when :func:`fast_eligible` allows it, else its reference loop.  Events
come only from the reference loops, through ``simulate_observed``.
:func:`simulate_sweep` is the sweep entry point, and which simulations
a sweep actually runs is decided there alone: per-member dispatch, plus
the RUU size rule.  The experiment engine (:mod:`repro.harness.engine`)
and the differential oracle (:mod:`repro.verify.oracle`) route
sweep-shaped work through it; :func:`repro.api.run_sweep` and ``repro
sweep`` reach it as an engine plan.

Bit-identity with ``reference_simulate`` is a hard invariant for every
loop, enforced by the differential suites
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
    order.  Each member is dispatched as its machine's own ``simulate``
    would be: one the gate refuses (no compiled loop, or the fast path
    disabled by ``REPRO_FASTPATH=0`` / :func:`set_enabled`) runs its own
    ``simulate`` -- the reference path -- and any other its family's
    compiled loop.  The RUU members alone are held back and replayed
    together by :func:`python_backend.ruu_sweep`, which serves a smaller
    RUU from a larger one's never-full run; their scalar-only check
    still runs in item order, so a vector trace fails on the same member
    as under per-member dispatch.
    """
    resolved = [
        item if isinstance(item, SweepItem) else SweepItem(*item)
        for item in items
    ]
    results: List[SimulationResult] = [None] * len(resolved)  # type: ignore
    ruu: List[int] = []
    for index, item in enumerate(resolved):
        simulator = item.simulator
        family = family_of(simulator)
        if not fast_eligible(simulator):
            results[index] = simulator.simulate(trace, item.config)
        elif family == "ruu":
            python_backend.require_scalar(compile_trace(trace), simulator)
            ruu.append(index)
        else:
            results[index] = python_backend.FAMILY_LOOPS[family](
                simulator, trace, item.config, item.record
            )
    if ruu:
        members = [resolved[index] for index in ruu]
        served = python_backend.ruu_sweep(compile_trace(trace), members)
        for index, result in zip(ruu, served):
            results[index] = result
    return results
