"""Fast-path gating, sweep members and run counters.

One rule decides, per (simulator, call), whether the compiled loops may
serve a machine (:func:`fast_eligible`):

* ``REPRO_FASTPATH=0`` / :func:`set_enabled` disables the fast path --
  every machine runs its reference loop via ``simulator.simulate``;
* machines without a compiled loop (:func:`family_of` is ``None``)
  always take their own ``simulate`` path.

Observed replays never reach the gate: ``simulate_observed`` always
runs the event-emitting reference loop.

:func:`stats` merges the compile-cache counters from
:mod:`repro.core.fastpath.ir` with the run counters of the compiled
loops (:mod:`~repro.core.fastpath.python_backend`): ``python.fast_runs``
(every member a compiled loop served), ``python.reused_runs`` (the RUU
sweep members served from another member's replay) and
``python.skipped_instructions`` (the steady-state fast-forward), so
manifests and ``repro stats`` can attribute every fast run; the flat
``fast_runs`` key repeats ``python.fast_runs``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..config import MachineConfig
from . import ir

__all__ = [
    "SweepItem",
    "enabled",
    "fast_eligible",
    "family_of",
    "reset_stats",
    "set_enabled",
    "stats",
]

_ENABLED = os.environ.get("REPRO_FASTPATH", "1") != "0"


def enabled() -> bool:
    """Is fast-path auto-selection on? (``REPRO_FASTPATH=0`` disables.)"""
    return _ENABLED


def set_enabled(value: bool) -> bool:
    """Toggle fast-path auto-selection; returns the previous setting.

    With the fast path disabled, machines and sweeps run the reference
    loops.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


# ----------------------------------------------------------------------
# Sweep members and run counters
# ----------------------------------------------------------------------

@dataclass
class SweepItem:
    """One member of a sweep: a machine, a config, and optionally a
    schedule list that receives per-instruction ``(issue, complete)``
    pairs (only honoured on the fast path; gated fallbacks run the
    reference loop, which reports through events instead)."""

    simulator: Any
    config: MachineConfig
    record: Optional[ir.Schedule] = None


#: Run counters of the compiled loops, published as ``python.<key>`` and
#: seeded so ``stats()`` exposes a stable key set (the engine diffs
#: snapshots).
_RUN_STATS: Dict[str, int] = {
    "fast_runs": 0, "reused_runs": 0, "skipped_instructions": 0,
}


def count_run(key: str, n: int = 1) -> None:
    """Bump the run counter ``python.<key>``."""
    _RUN_STATS[key] += n


def stats() -> Dict[str, int]:
    """Compile-cache and run counters, flattened.

    ``compiles`` / ``cache_hits`` / ``cache_misses`` / ``evictions``
    describe the per-trace compile cache (every miss compiles, so
    ``cache_misses == compiles`` unless the counters were reset between
    the two events; ``evictions`` counts entries dropped by the weak
    reference when their trace was garbage-collected).  ``fast_runs``
    and ``python.fast_runs`` count every member a compiled loop served,
    sweep members reused from another member's RUU replay included, and
    ``python.reused_runs`` those reused ones.
    ``python.skipped_instructions`` counts the instructions the loops
    credited in closed form instead of replaying (the steady-state
    fast-forward).
    """
    merged: Dict[str, int] = dict(ir._STATS)
    merged["fast_runs"] = _RUN_STATS["fast_runs"]
    for key, value in sorted(_RUN_STATS.items()):
        merged[f"python.{key}"] = value
    return merged


def reset_stats() -> None:
    """Zero every counter (tests and benchmarks use this)."""
    ir.reset_compile_stats()
    for key in _RUN_STATS:
        _RUN_STATS[key] = 0


# ----------------------------------------------------------------------
# Gating
# ----------------------------------------------------------------------

def family_of(simulator) -> Optional[str]:
    """The compiled-loop family of *simulator* (its ``family`` class
    attribute, set by :class:`~repro.core.base.CompiledSimulator`
    subclasses), or ``None`` if it has no fast path (memory-system
    wrappers, the simple machine, ...)."""
    return getattr(simulator, "family", None)


def fast_eligible(simulator) -> bool:
    """May *simulator* be served by a compiled loop right now?

    The single gating rule: the fast path must be enabled and the
    machine must have a compiled loop.
    """
    return _ENABLED and family_of(simulator) is not None
