"""Opcodes of the CRAY-like base instruction set.

The instruction set follows the CRAY-1S split between *address* (integer,
A/B registers) and *scalar* (floating point, S/T registers) computation.
Instructions are 1 parcel (16 bits) or 2 parcels (32 bits); instructions that
carry an immediate constant, a memory displacement or a branch target are
2-parcel, register-to-register instructions are 1-parcel.  The parcel width
matters for the paper's slow-branch model (a branch is a 2-parcel
instruction, one source of its issue delay).

Floating-point division does not exist as an opcode, exactly as on the
CRAY-1: compilers synthesise it from :data:`Opcode.FRECIP` (reciprocal
approximation) followed by multiplies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from .functional_units import FunctionalUnit


class OpKind(enum.Enum):
    """Broad semantic class of an opcode; drives interpreter dispatch."""

    IMM_INT = "integer immediate"
    IMM_FLOAT = "float immediate"
    MOVE_INT = "integer move"
    MOVE_FLOAT = "float move"
    ALU_INT = "integer alu"
    ALU_FLOAT = "float alu"
    XFER = "cross-file transfer"
    CONVERT = "int/float conversion"
    LOAD = "load"
    STORE = "store"
    BRANCH_COND = "conditional branch"
    BRANCH_UNCOND = "unconditional branch"
    PASS = "pass"
    SETVL = "set vector length"
    VECTOR_LOAD = "vector load"
    VECTOR_STORE = "vector store"
    VECTOR_ALU = "vector arithmetic"


class Opcode(enum.Enum):
    """Every opcode of the base instruction set."""

    # -- immediates -------------------------------------------------------
    AI = "AI"  # A[d] <- int immediate
    SI = "SI"  # S[d] <- float immediate
    # -- register transfers ------------------------------------------------
    AMOVE = "AMOVE"  # A/B <- A/B
    SMOVE = "SMOVE"  # S/T <- S/T
    ATS = "ATS"  # S[d] <- A[s]   (transmit address value to scalar register)
    STA = "STA"  # A[d] <- S[s]   (transmit scalar value to address register)
    FIX = "FIX"  # A[d] <- trunc(S[s])  (float -> int conversion)
    FLOAT = "FLOAT"  # S[d] <- float(A[s]) (int -> float conversion)
    # -- address (integer) arithmetic --------------------------------------
    AADD = "AADD"  # A[d] <- a + b          (address add unit)
    ASUB = "ASUB"  # A[d] <- a - b          (address add unit)
    AMUL = "AMUL"  # A[d] <- a * b          (address multiply unit)
    # -- scalar integer/logical/shift (S registers) -------------------------
    SADD = "SADD"  # S[d] <- a + b (64-bit integer add on S regs)
    SSUB = "SSUB"
    SAND = "SAND"
    SOR = "SOR"
    SXOR = "SXOR"
    SSHL = "SSHL"  # S[d] <- a << k
    SSHR = "SSHR"  # S[d] <- a >> k
    # -- floating point -----------------------------------------------------
    FADD = "FADD"
    FSUB = "FSUB"
    FMUL = "FMUL"
    FRECIP = "FRECIP"  # S[d] <- reciprocal approximation of a
    # -- memory --------------------------------------------------------------
    LOADS = "LOADS"  # S[d] <- mem[A[a] + disp]
    LOADA = "LOADA"  # A[d] <- mem[A[a] + disp]
    STORES = "STORES"  # mem[A[a] + disp] <- S[s]
    STOREA = "STOREA"  # mem[A[a] + disp] <- A[s]
    # -- control --------------------------------------------------------------
    JAZ = "JAZ"  # branch if A0 == 0
    JAN = "JAN"  # branch if A0 != 0
    JAP = "JAP"  # branch if A0 >= 0
    JAM = "JAM"  # branch if A0 < 0
    JMP = "JMP"  # unconditional branch
    # -- vector unit (extension; see repro.isa.registers docs) -----------------
    VSETL = "VSETL"  # L0 <- A[s] or immediate  (elements per vector op)
    VLOAD = "VLOAD"  # V[d][0:VL] <- mem[A[a] + i*stride]
    VSTORE = "VSTORE"  # mem[A[a] + i*stride] <- V[s][0:VL]
    VVADD = "VVADD"  # V[d] <- V[a] + V[b] elementwise
    VVSUB = "VVSUB"
    VVMUL = "VVMUL"
    VSADD = "VSADD"  # V[d] <- S[a] + V[b]
    VSMUL = "VSMUL"  # V[d] <- S[a] * V[b]
    # -- misc ------------------------------------------------------------------
    PASS = "PASS"  # no-operation

    # Static facts, set once per member from OPCODE_INFO below.
    info: "OpcodeInfo"
    unit: FunctionalUnit
    kind: OpKind
    parcels: int
    is_branch: bool
    is_memory: bool
    #: True if the opcode produces a register result.
    writes_register: bool
    #: True for vector-unit opcodes (extension).
    is_vector: bool
    #: True if the opcode's element count comes from L0.
    reads_vector_length: bool


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of an opcode.

    Attributes:
        unit: functional unit that executes the opcode.
        kind: semantic class, used by the interpreter and the assembler's
            operand validation.
        parcels: instruction width in 16-bit parcels (1 or 2).
        n_srcs: number of source operands the opcode expects (registers or
            immediates; for memory operations this includes the address
            register and displacement, for stores also the data register).
    """

    unit: FunctionalUnit
    kind: OpKind
    parcels: int
    n_srcs: int


_FU = FunctionalUnit
_K = OpKind

OPCODE_INFO: Mapping[Opcode, OpcodeInfo] = {
    Opcode.AI: OpcodeInfo(_FU.TRANSFER, _K.IMM_INT, 2, 1),
    Opcode.SI: OpcodeInfo(_FU.TRANSFER, _K.IMM_FLOAT, 2, 1),
    Opcode.AMOVE: OpcodeInfo(_FU.TRANSFER, _K.MOVE_INT, 1, 1),
    Opcode.SMOVE: OpcodeInfo(_FU.TRANSFER, _K.MOVE_FLOAT, 1, 1),
    Opcode.ATS: OpcodeInfo(_FU.TRANSFER, _K.XFER, 1, 1),
    Opcode.STA: OpcodeInfo(_FU.TRANSFER, _K.XFER, 1, 1),
    Opcode.FIX: OpcodeInfo(_FU.SCALAR_SHIFT, _K.CONVERT, 1, 1),
    Opcode.FLOAT: OpcodeInfo(_FU.SCALAR_SHIFT, _K.CONVERT, 1, 1),
    Opcode.AADD: OpcodeInfo(_FU.ADDRESS_ADD, _K.ALU_INT, 1, 2),
    Opcode.ASUB: OpcodeInfo(_FU.ADDRESS_ADD, _K.ALU_INT, 1, 2),
    Opcode.AMUL: OpcodeInfo(_FU.ADDRESS_MULTIPLY, _K.ALU_INT, 1, 2),
    Opcode.SADD: OpcodeInfo(_FU.SCALAR_ADD, _K.ALU_FLOAT, 1, 2),
    Opcode.SSUB: OpcodeInfo(_FU.SCALAR_ADD, _K.ALU_FLOAT, 1, 2),
    Opcode.SAND: OpcodeInfo(_FU.SCALAR_LOGICAL, _K.ALU_FLOAT, 1, 2),
    Opcode.SOR: OpcodeInfo(_FU.SCALAR_LOGICAL, _K.ALU_FLOAT, 1, 2),
    Opcode.SXOR: OpcodeInfo(_FU.SCALAR_LOGICAL, _K.ALU_FLOAT, 1, 2),
    Opcode.SSHL: OpcodeInfo(_FU.SCALAR_SHIFT, _K.ALU_FLOAT, 1, 2),
    Opcode.SSHR: OpcodeInfo(_FU.SCALAR_SHIFT, _K.ALU_FLOAT, 1, 2),
    Opcode.FADD: OpcodeInfo(_FU.FP_ADD, _K.ALU_FLOAT, 1, 2),
    Opcode.FSUB: OpcodeInfo(_FU.FP_ADD, _K.ALU_FLOAT, 1, 2),
    Opcode.FMUL: OpcodeInfo(_FU.FP_MULTIPLY, _K.ALU_FLOAT, 1, 2),
    Opcode.FRECIP: OpcodeInfo(_FU.FP_RECIPROCAL, _K.ALU_FLOAT, 1, 1),
    Opcode.LOADS: OpcodeInfo(_FU.MEMORY, _K.LOAD, 2, 2),
    Opcode.LOADA: OpcodeInfo(_FU.MEMORY, _K.LOAD, 2, 2),
    Opcode.STORES: OpcodeInfo(_FU.MEMORY, _K.STORE, 2, 3),
    Opcode.STOREA: OpcodeInfo(_FU.MEMORY, _K.STORE, 2, 3),
    Opcode.JAZ: OpcodeInfo(_FU.BRANCH, _K.BRANCH_COND, 2, 1),
    Opcode.JAN: OpcodeInfo(_FU.BRANCH, _K.BRANCH_COND, 2, 1),
    Opcode.JAP: OpcodeInfo(_FU.BRANCH, _K.BRANCH_COND, 2, 1),
    Opcode.JAM: OpcodeInfo(_FU.BRANCH, _K.BRANCH_COND, 2, 1),
    Opcode.JMP: OpcodeInfo(_FU.BRANCH, _K.BRANCH_UNCOND, 2, 0),
    Opcode.VSETL: OpcodeInfo(_FU.TRANSFER, _K.SETVL, 1, 1),
    Opcode.VLOAD: OpcodeInfo(_FU.MEMORY, _K.VECTOR_LOAD, 2, 2),
    Opcode.VSTORE: OpcodeInfo(_FU.MEMORY, _K.VECTOR_STORE, 2, 3),
    Opcode.VVADD: OpcodeInfo(_FU.FP_ADD, _K.VECTOR_ALU, 1, 2),
    Opcode.VVSUB: OpcodeInfo(_FU.FP_ADD, _K.VECTOR_ALU, 1, 2),
    Opcode.VVMUL: OpcodeInfo(_FU.FP_MULTIPLY, _K.VECTOR_ALU, 1, 2),
    Opcode.VSADD: OpcodeInfo(_FU.FP_ADD, _K.VECTOR_ALU, 1, 2),
    Opcode.VSMUL: OpcodeInfo(_FU.FP_MULTIPLY, _K.VECTOR_ALU, 1, 2),
    Opcode.PASS: OpcodeInfo(_FU.TRANSFER, _K.PASS, 1, 0),
}

for _op, _info in OPCODE_INFO.items():
    _op.info = _info
    _op.unit = _info.unit
    _op.kind = _info.kind
    _op.parcels = _info.parcels
    _op.is_branch = _info.kind in (_K.BRANCH_COND, _K.BRANCH_UNCOND)
    _op.is_memory = _info.kind in (_K.LOAD, _K.STORE)
    _op.writes_register = _info.kind not in (
        _K.STORE, _K.VECTOR_STORE, _K.BRANCH_COND, _K.BRANCH_UNCOND, _K.PASS,
    )
    _op.is_vector = _info.kind in (
        _K.VECTOR_LOAD, _K.VECTOR_STORE, _K.VECTOR_ALU,
    )
    _op.reads_vector_length = _op.is_vector
del _op, _info
