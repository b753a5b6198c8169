"""The Simple (serial) machine of Section 3.1 -- the paper's lower bound.

Two pipeline stages: (i) fetch/decode/issue and (ii) execute.  At most one
instruction occupies each stage, and an instruction enters the execute
stage only when its predecessor has left it.  Because instructions never
overlap in execution, no dependence checking is needed at all.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..trace import Trace
from .base import Simulator
from .config import MachineConfig
from .result import SimulationResult


class SimpleMachine(Simulator):
    """Strictly serial execution: one instruction in flight at a time."""

    @property
    def name(self) -> str:
        return "Simple"

    def simulate(self, trace: Trace, config: MachineConfig) -> SimulationResult:
        latencies = config.latencies
        # Per opcode (keyed by identity: enum members are singletons, and
        # their hash is a Python-level call): the execute latency and
        # whether the element count adds to it, resolved once per call.
        timing: Dict[int, Tuple[int, bool]] = {}
        # Cycle the previous instruction leaves the execute stage.
        prev_complete = 0
        # Cycle the current instruction occupies the issue stage.
        issue = 0

        for entry in trace.entries:
            opcode = entry.instruction.opcode
            resolved = timing.get(id(opcode))
            if resolved is None:
                resolved = timing[id(opcode)] = (
                    latencies.latency(opcode.unit), opcode.is_vector
                )
            latency, is_vector = resolved
            if is_vector:
                # A vector operation streams its elements serially.
                latency += entry.vector_length or 0
            # The instruction sits in decode/issue (1 cycle minimum) and
            # moves to execute once the predecessor is done.
            exec_start = issue + 1
            if prev_complete > exec_start:
                exec_start = prev_complete
            prev_complete = exec_start + latency
            # The issue stage frees when this instruction moves to execute.
            issue = exec_start

        return SimulationResult(
            trace_name=trace.name,
            simulator=self.name,
            config=config,
            instructions=len(trace),
            cycles=prev_complete,
        )
