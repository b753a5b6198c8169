"""Simulator interface.

All issue-method models share one contract: replay a dynamic trace under a
:class:`~repro.core.config.MachineConfig` and report instructions, cycles
and the issue rate.  Simulators are stateless between calls; all per-run
state lives inside :meth:`Simulator.simulate`.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..obs.events import EventCallback
from ..trace import Trace
from . import fastpath
from .config import MachineConfig
from .result import SimulationResult


def scalar_only_error(machine_name: str) -> ValueError:
    """The error every scalar-only machine raises for a vector trace.

    Shared between :func:`require_scalar_trace` (reference loops) and
    the compiled fast paths (:mod:`repro.core.fastpath`), so both reject
    vector traces with the same message.
    """
    return ValueError(
        f"{machine_name} models scalar instruction issue only; "
        "time vector code on SimpleMachine or a ScoreboardMachine"
    )


def require_scalar_trace(trace: Trace, machine_name: str) -> None:
    """Reject traces containing vector instructions.

    The multi-issue and dependency-resolution models reproduce the
    paper's scalar experiments; the vector-unit extension is timed by the
    single-issue machines (Simple and the scoreboard family), which model
    vector element streaming and chaining.
    """
    for entry in trace.entries:
        if entry.instruction.is_vector:
            raise scalar_only_error(machine_name)


class Simulator(abc.ABC):
    """A timing model for one instruction-issue method.

    :meth:`simulate_observed` is the one way to watch a replay: machines
    with an event-emitting reference loop pass its typed
    issue/stall/complete/flush events
    (:class:`repro.obs.events.SimEvent`) to the callback.  Events are
    observational only -- they never change timing.
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable simulator name used in results and tables."""

    @abc.abstractmethod
    def simulate(self, trace: Trace, config: MachineConfig) -> SimulationResult:
        """Replay *trace* and return the timing outcome.

        Machines with a compiled fast loop inherit theirs from
        :class:`CompiledSimulator`; the rest (the simple machine, the
        memory-system wrappers) define their own.
        """

    def simulate_observed(
        self,
        trace: Trace,
        config: MachineConfig,
        on_event: Optional[EventCallback],
    ) -> SimulationResult:
        """Replay *trace* with *on_event* receiving the replay's events.

        Machines without an event-emitting loop (the simple machine, the
        memory-system wrappers) emit none and just :meth:`simulate`.
        """
        return self.simulate(trace, config)

    def issue_rate(self, trace: Trace, config: MachineConfig) -> float:
        """Convenience: just the issue rate."""
        return self.simulate(trace, config).issue_rate

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class CompiledSimulator(Simulator):
    """A machine family with a compiled fast loop.

    Subclasses name their :attr:`family` and implement the event-capable
    reference loop :meth:`_simulate`; this class is the one place a
    machine picks between that loop and its compiled twin
    (``fastpath.python_backend.FAMILY_LOOPS[family]``).
    """

    #: Key of the compiled loop in ``FAMILY_LOOPS`` (what
    #: :func:`repro.core.fastpath.family_of` reports).
    family: str

    def simulate(self, trace: Trace, config: MachineConfig) -> SimulationResult:
        """Replay *trace* on the compiled loop when
        :func:`~repro.core.fastpath.fast_eligible` allows it, else on the
        reference loop.

        The gate is re-read on every call (never cached).  The compiled
        loop is bit-identical (``tests/test_fastpath_diff.py``, the
        oracle's ``fastpath-dual`` check) but emits no events; observed
        replays go through :meth:`simulate_observed`.
        """
        if fastpath.fast_eligible(self):
            loop = fastpath.python_backend.FAMILY_LOOPS[self.family]
            return loop(self, trace, config)
        return self._simulate(trace, config, None)

    def simulate_observed(
        self,
        trace: Trace,
        config: MachineConfig,
        on_event: Optional[EventCallback],
    ) -> SimulationResult:
        """The event-emitting reference loop, with *on_event* receiving
        its events (``None`` runs it unobserved)."""
        return self._simulate(trace, config, on_event)

    def reference_simulate(
        self, trace: Trace, config: MachineConfig
    ) -> SimulationResult:
        """The reference loop with no callback: the baseline the compiled
        loop must match bit-for-bit in the differential tests, the
        oracle's ``fastpath-dual`` check and the benchmark suite."""
        return self._simulate(trace, config, None)

    @abc.abstractmethod
    def _simulate(
        self,
        trace: Trace,
        config: MachineConfig,
        emit: Optional[EventCallback],
    ) -> SimulationResult:
        """The event-capable reference loop; *emit* receives its events."""
