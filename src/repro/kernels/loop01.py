"""Livermore Loop 1 -- hydro fragment (vectorizable).

Fortran original::

    DO 1 k = 1,n
  1 X(k) = Q + Y(k)*(R*Z(k+10) + T*Z(k+11))

Each iteration is independent; the loop is limited only by resources and
branch resolution, which is why the paper classifies it as vectorizable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 1
NAME = "hydro fragment"

_Q = 0.5
_R = 4.86
_T = 2.76


def build(n: Optional[int] = None) -> KernelInstance:
    """Build the kernel at problem size *n* (default from :mod:`sizes`)."""
    n = default_size(NUMBER) if n is None else n
    if n < 1:
        raise ValueError(f"loop 1 needs n >= 1, got {n}")

    layout = Layout()
    x = layout.array("x", n)
    y = layout.array("y", n)
    z = layout.array("z", n + 11)

    rng = kernel_rng(NUMBER, n)
    y0 = rng.uniform(0.1, 1.0, n)
    z0 = rng.uniform(0.1, 1.0, n + 11)

    memory = layout.memory()
    y.write_to(memory, y0)
    z.write_to(memory, z0)

    expected_x = _Q + y0 * (_R * z0[10 : 10 + n] + _T * z0[11 : 11 + n])

    b = ProgramBuilder("livermore-01")
    b.si(S(1), _Q, comment="q")
    b.si(S(2), _R, comment="r")
    b.si(S(3), _T, comment="t")
    b.ai(A(1), 0, comment="k")
    b.ai(A(0), n, comment="trip count")
    b.label("loop")
    b.loads(S(4), A(1), z.base + 10, comment="z[k+10]")
    b.loads(S(5), A(1), z.base + 11, comment="z[k+11]")
    b.fmul(S(4), S(2), S(4), comment="r*z[k+10]")
    b.fmul(S(5), S(3), S(5), comment="t*z[k+11]")
    b.fadd(S(4), S(4), S(5))
    b.loads(S(6), A(1), y.base, comment="y[k]")
    b.fmul(S(4), S(6), S(4), comment="y[k]*(...)")
    b.fadd(S(4), S(1), S(4), comment="q + ...")
    b.stores(S(4), A(1), x.base, comment="x[k]")
    b.aadd(A(1), A(1), 1)
    b.asub(A(0), A(0), 1)
    b.jan("loop")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"x": expected_x},
        checked_arrays=("x",),
        trip_counts=(n,),
    )
