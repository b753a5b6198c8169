"""Instruction representation for the CRAY-like base machine.

An :class:`Instruction` is a small immutable value: an opcode, an optional
destination register, a tuple of source operands (registers or immediate
numbers), and -- for branches -- a symbolic target label.  The same object
type is used by the assembler, the functional interpreter, the trace layer
and all the timing simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .functional_units import FunctionalUnit, LatencyTable
from .opcodes import OpKind, Opcode
from .registers import A0, VL, RegFile, Register

#: A source operand: an architectural register or an immediate constant.
Operand = Union[Register, int, float]


class InstructionError(ValueError):
    """Raised for a malformed instruction (bad operand shape or type)."""


@dataclass(frozen=True)
class Instruction:
    """One machine instruction.

    Attributes:
        opcode: the operation.
        dest: destination register, or ``None`` for stores, branches, PASS.
        srcs: source operands in opcode order.  For memory operations the
            address register and integer displacement are sources; for
            stores the data register comes first.
        target: symbolic branch target label (branches only).
        comment: free-form annotation carried through to disassembly.
    """

    opcode: Opcode
    dest: Optional[Register] = None
    srcs: Tuple[Operand, ...] = ()
    target: Optional[str] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.srcs, tuple):
            object.__setattr__(self, "srcs", tuple(self.srcs))
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        op = self.opcode
        info = op.info
        kind = info.kind

        if len(self.srcs) != info.n_srcs:
            raise InstructionError(
                f"{op.value} expects {info.n_srcs} source operand(s), "
                f"got {len(self.srcs)}"
            )

        if op.writes_register:
            if self.dest is None:
                raise InstructionError(f"{op.value} requires a destination register")
        elif self.dest is not None:
            raise InstructionError(f"{op.value} takes no destination register")

        if op.is_branch:
            if not self.target:
                raise InstructionError(f"{op.value} requires a target label")
        elif self.target is not None:
            raise InstructionError(f"{op.value} takes no target label")

        validator = _KIND_VALIDATORS[kind]
        validator(self)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def unit(self) -> FunctionalUnit:
        """Functional unit that executes this instruction."""
        return self.opcode.unit

    @property
    def kind(self) -> OpKind:
        return self.opcode.kind

    @property
    def parcels(self) -> int:
        """Width in 16-bit parcels (1 or 2)."""
        return self.opcode.parcels

    @property
    def is_branch(self) -> bool:
        return self.opcode.is_branch

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode.kind is OpKind.BRANCH_COND

    @property
    def is_load(self) -> bool:
        return self.opcode.kind is OpKind.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode.kind is OpKind.STORE

    @property
    def accesses_memory(self) -> bool:
        """True for every memory-port instruction, scalar or vector."""
        return self.opcode.unit is FunctionalUnit.MEMORY

    @property
    def is_vector(self) -> bool:
        """True for vector-unit instructions (extension)."""
        return self.opcode.is_vector

    @property
    def source_registers(self) -> Tuple[Register, ...]:
        """The register operands among the sources (for hazard detection).

        Vector operations implicitly read the vector-length register L0,
        so it appears here for them.
        """
        regs = tuple(s for s in self.srcs if isinstance(s, Register))
        if self.opcode.reads_vector_length:
            regs = regs + (VL,)
        return regs

    def latency(self, table: LatencyTable) -> int:
        """Result latency of this instruction under *table*."""
        return table.latency(self.unit)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = [self.opcode.value]
        operands = []
        if self.dest is not None:
            operands.append(self.dest.name)
        for src in self.srcs:
            operands.append(src.name if isinstance(src, Register) else repr(src))
        if self.target is not None:
            operands.append(self.target)
        if operands:
            parts.append(" " + ", ".join(operands))
        text = "".join(parts)
        if self.comment:
            text = f"{text:<32}; {self.comment}"
        return text


# ----------------------------------------------------------------------
# per-kind operand validators
# ----------------------------------------------------------------------


def _require_address_reg(instr: Instruction, reg: Operand, role: str) -> None:
    if not isinstance(reg, Register) or not reg.is_address:
        raise InstructionError(
            f"{instr.opcode.value}: {role} must be an address (A/B) register, "
            f"got {reg!r}"
        )


def _require_scalar_reg(instr: Instruction, reg: Operand, role: str) -> None:
    if not isinstance(reg, Register) or not reg.is_scalar:
        raise InstructionError(
            f"{instr.opcode.value}: {role} must be a scalar (S/T) register, "
            f"got {reg!r}"
        )


def _require_int(instr: Instruction, value: Operand, role: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstructionError(
            f"{instr.opcode.value}: {role} must be an integer immediate, "
            f"got {value!r}"
        )


def _validate_imm_int(instr: Instruction) -> None:
    _require_address_reg(instr, instr.dest, "destination")
    _require_int(instr, instr.srcs[0], "immediate")


def _validate_imm_float(instr: Instruction) -> None:
    _require_scalar_reg(instr, instr.dest, "destination")
    value = instr.srcs[0]
    if isinstance(value, Register) or isinstance(value, bool):
        raise InstructionError(
            f"SI: immediate must be a number, got {value!r}"
        )


def _validate_move_int(instr: Instruction) -> None:
    _require_address_reg(instr, instr.dest, "destination")
    _require_address_reg(instr, instr.srcs[0], "source")


def _validate_move_float(instr: Instruction) -> None:
    _require_scalar_reg(instr, instr.dest, "destination")
    _require_scalar_reg(instr, instr.srcs[0], "source")


def _validate_alu_int(instr: Instruction) -> None:
    if instr.dest is None or instr.dest.file is not RegFile.A:
        raise InstructionError(
            f"{instr.opcode.value}: destination must be an A register"
        )
    for i, src in enumerate(instr.srcs):
        if isinstance(src, Register):
            if src.file is not RegFile.A:
                raise InstructionError(
                    f"{instr.opcode.value}: source {i} must be an A register "
                    f"or integer immediate, got {src!r}"
                )
        else:
            _require_int(instr, src, f"source {i}")


def _validate_alu_float(instr: Instruction) -> None:
    if instr.dest is None or instr.dest.file is not RegFile.S:
        raise InstructionError(
            f"{instr.opcode.value}: destination must be an S register"
        )
    shift = instr.opcode in (Opcode.SSHL, Opcode.SSHR)
    for i, src in enumerate(instr.srcs):
        if isinstance(src, Register):
            if src.file is not RegFile.S:
                raise InstructionError(
                    f"{instr.opcode.value}: source {i} must be an S register, "
                    f"got {src!r}"
                )
        elif shift and i == 1:
            _require_int(instr, src, "shift count")
        else:
            raise InstructionError(
                f"{instr.opcode.value}: source {i} must be an S register "
                f"(load immediates with SI first), got {src!r}"
            )


def _validate_load(instr: Instruction) -> None:
    want_scalar = instr.opcode is Opcode.LOADS
    if want_scalar:
        if instr.dest is None or instr.dest.file is not RegFile.S:
            raise InstructionError("LOADS: destination must be an S register")
    else:
        if instr.dest is None or instr.dest.file is not RegFile.A:
            raise InstructionError("LOADA: destination must be an A register")
    addr, disp = instr.srcs
    if not isinstance(addr, Register) or addr.file is not RegFile.A:
        raise InstructionError(
            f"{instr.opcode.value}: address base must be an A register, got {addr!r}"
        )
    _require_int(instr, disp, "displacement")


def _validate_store(instr: Instruction) -> None:
    data, addr, disp = instr.srcs
    if instr.opcode is Opcode.STORES:
        if not isinstance(data, Register) or data.file is not RegFile.S:
            raise InstructionError("STORES: data must be an S register")
    else:
        if not isinstance(data, Register) or data.file is not RegFile.A:
            raise InstructionError("STOREA: data must be an A register")
    if not isinstance(addr, Register) or addr.file is not RegFile.A:
        raise InstructionError(
            f"{instr.opcode.value}: address base must be an A register, got {addr!r}"
        )
    _require_int(instr, disp, "displacement")


def _validate_xfer(instr: Instruction) -> None:
    (src,) = instr.srcs
    if instr.opcode is Opcode.ATS:
        _require_scalar_reg(instr, instr.dest, "destination")
        _require_address_reg(instr, src, "source")
    else:  # STA
        _require_address_reg(instr, instr.dest, "destination")
        _require_scalar_reg(instr, src, "source")


def _validate_convert(instr: Instruction) -> None:
    (src,) = instr.srcs
    if instr.opcode is Opcode.FIX:
        _require_address_reg(instr, instr.dest, "destination")
        _require_scalar_reg(instr, src, "source")
    else:  # FLOAT
        _require_scalar_reg(instr, instr.dest, "destination")
        _require_address_reg(instr, src, "source")


def _require_vector_reg(instr: Instruction, reg: Operand, role: str) -> None:
    if not isinstance(reg, Register) or reg.file is not RegFile.V:
        raise InstructionError(
            f"{instr.opcode.value}: {role} must be a vector (V) register, "
            f"got {reg!r}"
        )


def _require_a_or_int(instr: Instruction, value: Operand, role: str) -> None:
    if isinstance(value, Register):
        if value.file is not RegFile.A:
            raise InstructionError(
                f"{instr.opcode.value}: {role} must be an A register or "
                f"integer immediate, got {value!r}"
            )
    else:
        _require_int(instr, value, role)


def _validate_setvl(instr: Instruction) -> None:
    if instr.dest != VL:
        raise InstructionError("VSETL: destination must be the L0 register")
    _require_a_or_int(instr, instr.srcs[0], "vector length")


def _validate_vector_load(instr: Instruction) -> None:
    _require_vector_reg(instr, instr.dest, "destination")
    base, stride = instr.srcs
    if not isinstance(base, Register) or base.file is not RegFile.A:
        raise InstructionError(
            f"VLOAD: base must be an A register, got {base!r}"
        )
    _require_a_or_int(instr, stride, "stride")


def _validate_vector_store(instr: Instruction) -> None:
    data, base, stride = instr.srcs
    _require_vector_reg(instr, data, "data")
    if not isinstance(base, Register) or base.file is not RegFile.A:
        raise InstructionError(
            f"VSTORE: base must be an A register, got {base!r}"
        )
    _require_a_or_int(instr, stride, "stride")


def _validate_vector_alu(instr: Instruction) -> None:
    _require_vector_reg(instr, instr.dest, "destination")
    first, second = instr.srcs
    if instr.opcode in (Opcode.VSADD, Opcode.VSMUL):
        _require_scalar_reg(instr, first, "scalar operand")
    else:
        _require_vector_reg(instr, first, "operand 0")
    _require_vector_reg(instr, second, "operand 1")


def _validate_branch_cond(instr: Instruction) -> None:
    (src,) = instr.srcs
    if src != A0:
        raise InstructionError(
            f"{instr.opcode.value}: conditional branches test A0 only "
            f"(CRAY-like model), got {src!r}"
        )


def _validate_branch_uncond(instr: Instruction) -> None:
    pass


def _validate_pass(instr: Instruction) -> None:
    pass


_KIND_VALIDATORS = {
    OpKind.IMM_INT: _validate_imm_int,
    OpKind.IMM_FLOAT: _validate_imm_float,
    OpKind.MOVE_INT: _validate_move_int,
    OpKind.MOVE_FLOAT: _validate_move_float,
    OpKind.XFER: _validate_xfer,
    OpKind.CONVERT: _validate_convert,
    OpKind.ALU_INT: _validate_alu_int,
    OpKind.ALU_FLOAT: _validate_alu_float,
    OpKind.LOAD: _validate_load,
    OpKind.STORE: _validate_store,
    OpKind.BRANCH_COND: _validate_branch_cond,
    OpKind.BRANCH_UNCOND: _validate_branch_uncond,
    OpKind.PASS: _validate_pass,
    OpKind.SETVL: _validate_setvl,
    OpKind.VECTOR_LOAD: _validate_vector_load,
    OpKind.VECTOR_STORE: _validate_vector_store,
    OpKind.VECTOR_ALU: _validate_vector_alu,
}
