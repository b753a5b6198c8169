"""Seeded trace fuzzer: random-but-well-formed scalar instruction traces.

Every trace the fuzzer emits satisfies the full ISA operand discipline
(:mod:`repro.isa.instructions` validates each instruction on construction)
and the trace-record discipline (:mod:`repro.trace.record` validates
branch outcomes, addresses and sequence numbers), so any machine that
chokes on a fuzzed trace has a real bug, not a malformed input.

The generator is deterministic: ``fuzz_trace(seed, spec)`` always returns
the same trace for the same ``(seed, spec)`` pair, using only the stdlib
:class:`random.Random` -- no new dependencies.

Knobs (:class:`FuzzSpec`):

* ``length`` -- dynamic instruction count;
* ``dependency_density`` -- probability a source operand reuses a
  recently written register (high density -> long dependence chains,
  low -> wide independent dataflow);
* ``memory_fraction`` / ``branch_fraction`` -- instruction mix;
* ``float_fraction`` -- share of compute on the scalar/FP pipes vs the
  address (integer) pipes;
* ``taken_fraction`` / ``backward_fraction`` -- branch behaviour.

Memory and branch *latencies* are properties of the
:class:`~repro.core.config.MachineConfig` a trace is replayed under, not
of the trace; the verification runner sweeps those separately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..isa import Instruction, Opcode
from ..isa.registers import A0, A, Register, S
from ..trace import Trace
from ..trace.generator import TraceItem, assemble_trace
from ..trace.record import TraceEntry

#: Two-operand integer (address-pipe) opcodes.
_INT_OPS = (Opcode.AADD, Opcode.ASUB, Opcode.AMUL)
#: Two-operand scalar/FP opcodes (S registers both sides).
_FLOAT_OPS = (
    Opcode.SADD,
    Opcode.SSUB,
    Opcode.SAND,
    Opcode.SOR,
    Opcode.SXOR,
    Opcode.FADD,
    Opcode.FSUB,
    Opcode.FMUL,
)
_SHIFT_OPS = (Opcode.SSHL, Opcode.SSHR)
_COND_BRANCHES = (Opcode.JAZ, Opcode.JAN, Opcode.JAP, Opcode.JAM)

#: How many recent writes the dependency picker draws from.
_RECENT_WINDOW = 4


@dataclass(frozen=True)
class FuzzSpec:
    """Parameters of one fuzzed trace (see module docstring)."""

    length: int = 48
    dependency_density: float = 0.55
    memory_fraction: float = 0.20
    branch_fraction: float = 0.08
    float_fraction: float = 0.50
    taken_fraction: float = 0.40
    backward_fraction: float = 0.50

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("a fuzzed trace needs at least one instruction")
        for field_name in (
            "dependency_density",
            "memory_fraction",
            "branch_fraction",
            "float_fraction",
            "taken_fraction",
            "backward_fraction",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if self.memory_fraction + self.branch_fraction > 1.0:
            raise ValueError(
                "memory_fraction + branch_fraction cannot exceed 1"
            )


class _Fuzzer:
    """One generation pass: an rng plus recently-written register pools."""

    def __init__(self, rng: random.Random, spec: FuzzSpec) -> None:
        self.rng = rng
        self.spec = spec
        self.recent_a: List[Register] = []
        self.recent_s: List[Register] = []

    # ---- register selection -------------------------------------------
    def _pick(self, recent: List[Register], fresh: Register) -> Register:
        if recent and self.rng.random() < self.spec.dependency_density:
            return self.rng.choice(recent[-_RECENT_WINDOW:])
        return fresh

    def src_a(self) -> Register:
        return self._pick(self.recent_a, A(self.rng.randrange(8)))

    def src_s(self) -> Register:
        return self._pick(self.recent_s, S(self.rng.randrange(8)))

    def dest_a(self) -> Register:
        # A0 shows up as a destination often enough that conditional
        # branches (which test A0 only) exercise fresh producers.
        reg = A0 if self.rng.random() < 0.15 else A(self.rng.randrange(1, 8))
        self.recent_a.append(reg)
        return reg

    def dest_s(self) -> Register:
        reg = S(self.rng.randrange(8))
        self.recent_s.append(reg)
        return reg

    # ---- instruction makers -------------------------------------------
    def integer_op(self) -> Instruction:
        roll = self.rng.random()
        if roll < 0.15:
            return Instruction(
                Opcode.AI, dest=self.dest_a(), srcs=(self.rng.randrange(256),)
            )
        if roll < 0.25:
            return Instruction(Opcode.AMOVE, dest=self.dest_a(), srcs=(self.src_a(),))
        if roll < 0.32:
            return Instruction(Opcode.STA, dest=self.dest_a(), srcs=(self.src_s(),))
        if roll < 0.38:
            return Instruction(Opcode.FIX, dest=self.dest_a(), srcs=(self.src_s(),))
        opcode = self.rng.choice(_INT_OPS)
        first = self.src_a()
        # ALU_INT allows integer immediates as sources.
        second: object = (
            self.rng.randrange(64) if self.rng.random() < 0.25 else self.src_a()
        )
        return Instruction(opcode, dest=self.dest_a(), srcs=(first, second))

    def float_op(self) -> Instruction:
        roll = self.rng.random()
        if roll < 0.12:
            return Instruction(
                Opcode.SI,
                dest=self.dest_s(),
                srcs=(round(self.rng.uniform(-8.0, 8.0), 3),),
            )
        if roll < 0.20:
            return Instruction(Opcode.SMOVE, dest=self.dest_s(), srcs=(self.src_s(),))
        if roll < 0.27:
            return Instruction(Opcode.ATS, dest=self.dest_s(), srcs=(self.src_a(),))
        if roll < 0.33:
            return Instruction(Opcode.FLOAT, dest=self.dest_s(), srcs=(self.src_a(),))
        if roll < 0.40:
            return Instruction(Opcode.FRECIP, dest=self.dest_s(), srcs=(self.src_s(),))
        if roll < 0.50:
            return Instruction(
                Opcode.SSHR if self.rng.random() < 0.5 else Opcode.SSHL,
                dest=self.dest_s(),
                srcs=(self.src_s(), self.rng.randrange(1, 32)),
            )
        opcode = self.rng.choice(_FLOAT_OPS)
        return Instruction(
            opcode, dest=self.dest_s(), srcs=(self.src_s(), self.src_s())
        )

    def memory_op(self, seq: int) -> TraceEntry:
        base = self.src_a()
        disp = self.rng.randrange(64)
        roll = self.rng.random()
        if roll < 0.40:
            instr = Instruction(Opcode.LOADS, dest=self.dest_s(), srcs=(base, disp))
        elif roll < 0.65:
            instr = Instruction(Opcode.LOADA, dest=self.dest_a(), srcs=(base, disp))
        elif roll < 0.85:
            instr = Instruction(Opcode.STORES, srcs=(self.src_s(), base, disp))
        else:
            instr = Instruction(Opcode.STOREA, srcs=(self.src_a(), base, disp))
        return TraceEntry(
            seq=seq,
            static_index=seq,
            instruction=instr,
            address=self.rng.randrange(4096),
        )

    def branch_op(self, seq: int) -> TraceEntry:
        unconditional = self.rng.random() < 0.2
        if unconditional:
            instr = Instruction(Opcode.JMP, target=f"L{seq}")
            taken = True
        else:
            opcode = self.rng.choice(_COND_BRANCHES)
            instr = Instruction(opcode, srcs=(A0,), target=f"L{seq}")
            taken = self.rng.random() < self.spec.taken_fraction
        return TraceEntry(
            seq=seq,
            static_index=seq,
            instruction=instr,
            taken=taken,
            backward=self.rng.random() < self.spec.backward_fraction,
        )


#: Named fuzz-spec presets ("families"): corners of the knob space the
#: default mix never reaches, exposed as ``fuzz:<family>`` specs by the
#: trace-source registry (:mod:`repro.trace.sources`) and swept by the
#: nightly branchy verification campaign.  Statistics envelopes for the
#: family traces live in ``repro.trace.sources.FAMILY_ENVELOPES``.
FUZZ_FAMILIES: "dict[str, FuzzSpec]" = {
    "default": FuzzSpec(),
    # Control-dominated: every third-or-so instruction is a branch, and
    # integer (address-pipe) compute feeds the A0 tests.
    "branchy": FuzzSpec(
        length=96,
        dependency_density=0.60,
        memory_fraction=0.12,
        branch_fraction=0.30,
        float_fraction=0.25,
        taken_fraction=0.55,
    ),
    # Memory-dominated with tight address recurrences: loads whose base
    # registers were just written, the fuzzer's closest shape to a chase.
    "pointer": FuzzSpec(
        length=96,
        dependency_density=0.85,
        memory_fraction=0.45,
        branch_fraction=0.04,
        float_fraction=0.20,
    ),
    # Wide independent dataflow: almost no reuse of recent results, so
    # issue width (not dependences) is the binding constraint.
    "parallel": FuzzSpec(
        length=96,
        dependency_density=0.15,
        memory_fraction=0.15,
        branch_fraction=0.04,
        float_fraction=0.60,
    ),
}


def fuzz_family(name: str, seed: int = 0) -> Trace:
    """Generate the *name* family's trace for *seed*.

    Raises:
        ValueError: for an unknown family name.
    """
    try:
        spec = FUZZ_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown fuzz family {name!r}; "
            f"available: {', '.join(sorted(FUZZ_FAMILIES))}"
        ) from None
    return fuzz_trace(seed, spec)


#: S-pipe (scalar / floating) vs A-pipe (address) functional units, for
#: mapping a measured ``fu_demand`` onto the ``float_fraction`` knob.
#: MEMORY, BRANCH and TRANSFER are excluded: the first two have their
#: own knobs and the fuzzer mints register moves on both pipes.
_FLOAT_UNIT_NAMES = frozenset({
    "scalar add", "scalar logical", "scalar shift", "population count",
    "floating add", "floating multiply", "reciprocal approximation",
})
_INT_UNIT_NAMES = frozenset({"address add", "address multiply"})


def _clamp(value: float, low: float, high: float) -> float:
    return min(high, max(low, value))


def kernel_calibrated_spec(
    loop: int,
    n: Optional[int] = None,
    length: Optional[int] = None,
) -> FuzzSpec:
    """Fuzzer knobs calibrated to one Livermore kernel's measured shape.

    Measures the kernel's verified dynamic trace (resolved through the
    engine's trace memo, so repeat calibrations capture it once) with
    :func:`repro.trace.stats.ir_statistics` and maps the envelope
    onto the :class:`FuzzSpec` knobs, so fuzzed campaigns can stress the
    machine models with workloads shaped like each real kernel (rather
    than only the hand-picked family corners):

    * ``branch_fraction`` / ``memory_fraction`` -- the measured mix,
      clamped to the fuzzer's valid region;
    * ``dependency_density`` -- the measured ``dependent_fraction``
      scaled by how much tighter the fuzzer's recent-write window is
      than the kernel's mean dependence distance (a kernel with long
      mean distances -- wide dataflow like loop 8 -- calibrates to a
      low density, a tight recurrence like loop 5 to a high one);
    * ``float_fraction`` -- the S-pipe share of the measured
      functional-unit demand over both compute pipes;
    * ``taken_fraction`` / ``backward_fraction`` -- counted directly
      from the kernel's dynamic branch outcomes (loop back-edges, so
      typically close to 1.0);
    * ``length`` -- the kernel's dynamic length, capped at 120 by
      default to keep fuzzed replay cheap (override with *length*).

    The deterministic fuzzer contract is unchanged:
    ``fuzz_trace(seed, kernel_calibrated_spec(loop))`` is reproducible.
    """
    from ..harness.engine import resolve_trace
    from ..kernels import default_size
    from ..trace.stats import ir_statistics

    size = default_size(loop) if n is None else n
    trace, _ = resolve_trace(f"kernel:{loop}:n={size}")
    stats = ir_statistics(trace)

    branch_fraction = _clamp(stats.branch_fraction, 0.0, 0.35)
    memory_fraction = _clamp(
        stats.memory_fraction, 0.0, 1.0 - branch_fraction
    )
    distance = max(stats.mean_dependence_distance, 1.0)
    dependency_density = _clamp(
        stats.dependent_fraction * _RECENT_WINDOW / distance, 0.05, 0.95
    )
    float_demand = sum(
        share for unit, share in stats.fu_demand.items()
        if unit in _FLOAT_UNIT_NAMES
    )
    int_demand = sum(
        share for unit, share in stats.fu_demand.items()
        if unit in _INT_UNIT_NAMES
    )
    compute = float_demand + int_demand
    float_fraction = float_demand / compute if compute else 0.5

    outcomes = [e.taken for e in trace.entries if e.taken is not None]
    backwards = [
        bool(e.backward) for e in trace.entries if e.taken is not None
    ]
    taken_fraction = (
        sum(outcomes) / len(outcomes) if outcomes else FuzzSpec.taken_fraction
    )
    backward_fraction = (
        sum(backwards) / len(backwards)
        if backwards
        else FuzzSpec.backward_fraction
    )

    return FuzzSpec(
        length=min(stats.length, 120) if length is None else length,
        dependency_density=dependency_density,
        memory_fraction=memory_fraction,
        branch_fraction=branch_fraction,
        float_fraction=_clamp(float_fraction, 0.0, 1.0),
        taken_fraction=_clamp(taken_fraction, 0.0, 1.0),
        backward_fraction=_clamp(backward_fraction, 0.0, 1.0),
    )


def fuzz_trace(seed: int, spec: Optional[FuzzSpec] = None) -> Trace:
    """Generate one deterministic synthetic trace for *seed* under *spec*."""
    spec = spec or FuzzSpec()
    rng = random.Random(seed)
    fuzzer = _Fuzzer(rng, spec)

    items: List[TraceItem] = []
    for seq in range(spec.length):
        roll = rng.random()
        if roll < spec.branch_fraction:
            items.append(fuzzer.branch_op(seq))
        elif roll < spec.branch_fraction + spec.memory_fraction:
            items.append(fuzzer.memory_op(seq))
        elif rng.random() < spec.float_fraction:
            items.append(fuzzer.float_op())
        else:
            items.append(fuzzer.integer_op())
    return assemble_trace(items, name=f"fuzz-{seed}")
