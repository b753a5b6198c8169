"""Fast replay: compiled trace IR + pluggable evaluation backends.

The package splits the fast path into three layers:

* :mod:`~repro.core.fastpath.ir` -- :func:`compile_trace` lowers a
  :class:`~repro.trace.Trace` once into flat parallel tuples of small
  integers (functional-unit index, register ids, branch/vector/bus
  flags), cached per trace object.  Machine- and config-independent:
  one compilation serves every machine variant and every backend.
* :mod:`~repro.core.fastpath.backends` -- the backend registry
  (parallel to :mod:`repro.core.registry` for machines), the uniform
  gating rules (``REPRO_FASTPATH`` / :func:`set_enabled`, installed
  ``on_event`` hooks force the reference loop), and the per-backend
  statistics behind :func:`stats`.
* the backends themselves -- ``python``
  (:mod:`~repro.core.fastpath.python_backend`): the per-spec compiled
  loops machines dispatch to; ``batch``
  (:mod:`~repro.core.fastpath.batch`): structure-of-arrays sweep
  evaluation that replays one compiled trace through many
  (machine, config) pairs in a single pass.

:func:`simulate_sweep` is the sweep entry point: it applies the gating
per item (ineligible members run their machine's own ``simulate``,
i.e. the reference loop), compiles the trace once, and hands the
eligible members to the requested backend (``auto`` resolves to
``batch``).  The experiment engine (:mod:`repro.harness.engine`) and
the differential oracle (:mod:`repro.verify.oracle`) route sweep-shaped
work through here; :func:`repro.api.run_sweep` exposes it publicly.

Bit-identity with ``reference_simulate`` is a hard invariant for every
backend, enforced by the differential suites
(``tests/test_fastpath_diff.py``, ``tests/test_fastpath_batch.py``),
the oracle's ``fastpath-dual`` check on every ``repro verify`` replay,
and the golden tables (which run with the fast path both on and off).

The per-family ``simulate_*_fast`` loops live in
:mod:`~repro.core.fastpath.python_backend`, where the machines' dispatch
gates reach them; everything else goes through :func:`simulate_sweep` or
the backend registry (see ``docs/performance.md``).
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ...trace import Trace
from ..result import SimulationResult
from . import backends
from .backends import (
    Backend,
    SweepItem,
    enabled,
    fast_eligible,
    family_of,
    get_backend,
    list_backends,
    register_backend,
    reset_stats,
    resolve_backend,
    set_enabled,
    stats,
)
from .ir import (
    _A0,
    _BRANCH,
    _CACHE,
    _FILE_OFFSETS,
    _MAX_CYCLES,
    _MEMORY,
    _UNIT_INDEX,
    _UNKNOWN,
    N_REGISTERS,
    UNITS,
    CompiledTrace,
    Op,
    Schedule,
    _unit_tables,
    compile_trace,
)
from . import python_backend
from .python_backend import PythonBackend
from .batch import BatchBackend

__all__ = [
    "Backend",
    "BatchBackend",
    "CompiledTrace",
    "N_REGISTERS",
    "PythonBackend",
    "SweepItem",
    "UNITS",
    "compile_trace",
    "enabled",
    "fast_eligible",
    "get_backend",
    "list_backends",
    "register_backend",
    "reset_stats",
    "resolve_backend",
    "set_enabled",
    "simulate_sweep",
    "stats",
]


def simulate_sweep(
    trace: Trace,
    items: Sequence[Union[SweepItem, tuple]],
    backend: str = "auto",
) -> List[SimulationResult]:
    """Replay *trace* through every (simulator, config) sweep member.

    Items are :class:`SweepItem` instances or ``(simulator, config)`` /
    ``(simulator, config, record)`` tuples; results come back in item
    order.  Gating is per item and identical to the machines' own
    dispatch: a member whose simulator has no compiled loop, carries an
    ``on_event`` hook, or runs with the fast path disabled
    (``REPRO_FASTPATH=0`` / :func:`set_enabled`) is served by its own
    ``simulate`` -- the reference path -- while the rest share one
    compiled trace through the requested backend (``"auto"`` resolves
    to ``batch``; ``"python"`` forces per-spec fast loops).
    """
    resolved = [
        item if isinstance(item, SweepItem) else SweepItem(*item)
        for item in items
    ]
    chosen = resolve_backend(backend)
    results: List[SimulationResult] = [None] * len(resolved)  # type: ignore
    fast_indices: List[int] = []
    for index, item in enumerate(resolved):
        if fast_eligible(item.simulator):
            fast_indices.append(index)
        else:
            results[index] = item.simulator.simulate(trace, item.config)
    if fast_indices:
        # One lowering for the whole sweep; the local reference pins the
        # compile-cache entry until every member has replayed.
        compiled = compile_trace(trace)  # noqa: F841 -- keepalive
        subset = [resolved[index] for index in fast_indices]
        for index, result in zip(
            fast_indices, chosen.simulate_sweep(trace, subset)
        ):
            results[index] = result
    return results
