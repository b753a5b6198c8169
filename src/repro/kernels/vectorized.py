"""Vectorised variants of the vectorizable kernels (extension).

The paper's machine is CRAY-like and *has* a vector unit ("8 64-element
vector registers"), but every experiment runs scalar code -- the whole
point is scalar issue-rate limits.  These variants compile three of the
"vectorizable" loops (1, 7, 12 -- the purely elementwise ones) for the
vector unit, strip-mined into <=64-element pieces with the remainder strip
first, CFT-style.  They reuse the scalar kernels' memory images and
reference expectations, so the same verification machinery checks them.

Timing note: only the single-issue machines (Simple and the scoreboard
family, which model element streaming and chaining) accept vector traces.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..asm import ProgramBuilder
from ..isa import A, S, V, VECTOR_LENGTH_MAX
from . import loop01, loop07, loop12
from .common import KernelInstance

#: Loops with vectorised encodings.
VECTORIZED_LOOPS: Tuple[int, ...] = (1, 7, 12)


def _strips(n: int) -> Tuple[int, int]:
    """(first strip length, strip count) for an n-element loop."""
    remainder = n % VECTOR_LENGTH_MAX
    first = remainder if remainder else min(n, VECTOR_LENGTH_MAX)
    count = (n - first) // VECTOR_LENGTH_MAX + 1
    return first, count


def _strip_prologue(b: ProgramBuilder, n: int) -> None:
    """Shared strip-mine control: A1 = element offset, A6 = strip length."""
    first, count = _strips(n)
    b.ai(A(1), 0, comment="element offset")
    b.ai(A(6), first, comment="first (remainder) strip length")
    b.ai(A(0), count, comment="strip count")
    b.label("strip")
    b.vsetl(A(6), comment="VL = current strip length")


def _strip_epilogue(b: ProgramBuilder) -> None:
    b.aadd(A(1), A(1), A(6), comment="offset += strip length")
    b.ai(A(6), VECTOR_LENGTH_MAX, comment="later strips are full")
    b.asub(A(0), A(0), 1)
    b.jan("strip")


def _vload_at(b: ProgramBuilder, dest, base: int, comment: str = "") -> None:
    """Load a unit-stride vector from ``base + offset``."""
    b.aadd(A(2), A(1), base)
    b.vload(dest, A(2), 1, comment=comment)


def build_vectorized(number: int, n: Optional[int] = None) -> KernelInstance:
    """Vectorised variant of Livermore loop *number* (1, 7 or 12).

    The instance's trace-source spec is ``kernel:<number>:n=<n>:vector=on``.
    """
    try:
        builder = _BUILDERS[number]
    except KeyError:
        raise ValueError(
            f"no vectorised encoding for loop {number}; "
            f"available: {VECTORIZED_LOOPS}"
        ) from None
    instance = builder(n)
    return dataclasses.replace(
        instance, source=f"kernel:{number}:n={instance.n}:vector=on"
    )


# ----------------------------------------------------------------------
# loop 1: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])
# ----------------------------------------------------------------------


def _build_loop01(n: Optional[int]) -> KernelInstance:
    scalar = loop01.build(n)
    x, y, z = (scalar.arrays[a] for a in ("x", "y", "z"))

    b = ProgramBuilder("livermore-01-vector")
    b.si(S(1), loop01._Q, comment="q")
    b.si(S(2), loop01._R, comment="r")
    b.si(S(3), loop01._T, comment="t")
    _strip_prologue(b, scalar.n)
    _vload_at(b, V(1), z.base + 10, "z[k+10]")
    _vload_at(b, V(2), z.base + 11, "z[k+11]")
    b.vsmul(V(1), S(2), V(1), comment="r*z[k+10]")
    b.vsmul(V(2), S(3), V(2), comment="t*z[k+11]")
    b.vvadd(V(1), V(1), V(2))
    _vload_at(b, V(3), y.base, "y[k]")
    b.vvmul(V(1), V(3), V(1))
    b.vsadd(V(1), S(1), V(1), comment="q + ...")
    b.aadd(A(2), A(1), x.base)
    b.vstore(V(1), A(2), 1, comment="x[k]")
    _strip_epilogue(b)

    return dataclasses.replace(scalar, program=b.build())


# ----------------------------------------------------------------------
# loop 7: equation of state (same association order as the scalar kernel)
# ----------------------------------------------------------------------


def _build_loop07(n: Optional[int]) -> KernelInstance:
    scalar = loop07.build(n)
    x, y, z, u = (scalar.arrays[a] for a in ("x", "y", "z", "u"))

    b = ProgramBuilder("livermore-07-vector")
    b.si(S(1), loop07._R, comment="r")
    b.si(S(2), loop07._T, comment="t")
    b.si(S(3), loop07._Q, comment="q")
    _strip_prologue(b, scalar.n)
    # term1 = u[k] + r*(z[k] + r*y[k])        -> V1
    _vload_at(b, V(1), y.base, "y[k]")
    b.vsmul(V(1), S(1), V(1))
    _vload_at(b, V(2), z.base, "z[k]")
    b.vvadd(V(1), V(2), V(1))
    b.vsmul(V(1), S(1), V(1))
    _vload_at(b, V(2), u.base, "u[k]")
    b.vvadd(V(1), V(2), V(1), comment="term1")
    # term2 = u[k+3] + r*(u[k+2] + r*u[k+1])  -> V2
    _vload_at(b, V(2), u.base + 1, "u[k+1]")
    b.vsmul(V(2), S(1), V(2))
    _vload_at(b, V(3), u.base + 2, "u[k+2]")
    b.vvadd(V(2), V(3), V(2))
    b.vsmul(V(2), S(1), V(2))
    _vload_at(b, V(3), u.base + 3, "u[k+3]")
    b.vvadd(V(2), V(3), V(2), comment="term2")
    # term3 = u[k+6] + q*(u[k+5] + q*u[k+4])  -> V3
    _vload_at(b, V(3), u.base + 4, "u[k+4]")
    b.vsmul(V(3), S(3), V(3))
    _vload_at(b, V(4), u.base + 5, "u[k+5]")
    b.vvadd(V(3), V(4), V(3))
    b.vsmul(V(3), S(3), V(3))
    _vload_at(b, V(4), u.base + 6, "u[k+6]")
    b.vvadd(V(3), V(4), V(3), comment="term3")
    # x[k] = term1 + t*(term2 + t*term3)
    b.vsmul(V(3), S(2), V(3))
    b.vvadd(V(2), V(2), V(3))
    b.vsmul(V(2), S(2), V(2))
    b.vvadd(V(1), V(1), V(2))
    b.aadd(A(2), A(1), x.base)
    b.vstore(V(1), A(2), 1, comment="x[k]")
    _strip_epilogue(b)

    return dataclasses.replace(scalar, program=b.build())


# ----------------------------------------------------------------------
# loop 12: x[k] = y[k+1] - y[k]
# ----------------------------------------------------------------------


def _build_loop12(n: Optional[int]) -> KernelInstance:
    scalar = loop12.build(n)
    x, y = (scalar.arrays[a] for a in ("x", "y"))

    b = ProgramBuilder("livermore-12-vector")
    _strip_prologue(b, scalar.n)
    _vload_at(b, V(1), y.base + 1, "y[k+1]")
    _vload_at(b, V(2), y.base, "y[k]")
    b.vvsub(V(1), V(1), V(2))
    b.aadd(A(2), A(1), x.base)
    b.vstore(V(1), A(2), 1, comment="x[k]")
    _strip_epilogue(b)

    return dataclasses.replace(scalar, program=b.build())


_BUILDERS = {1: _build_loop01, 7: _build_loop07, 12: _build_loop12}
