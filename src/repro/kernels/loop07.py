"""Livermore Loop 7 -- equation of state fragment (vectorizable).

C form::

    for (k = 0; k < n; k++)
        x[k] = u[k] + r*( z[k] + r*y[k] ) +
               t*( u[k+3] + r*( u[k+2] + r*u[k+1] ) +
                    t*( u[k+6] + q*( u[k+5] + q*u[k+4] ) ) );

The largest straight-line body among the vector loops: 9 loads and 15
floating operations per independent iteration, giving plenty of
instruction-level parallelism.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 7
NAME = "equation of state"

_R = 0.48
_T = 0.53
_Q = 0.37


def _reference(u0, y0, z0, n):
    x = np.empty(n)
    r, t, q = _R, _T, _Q
    for k in range(n):
        term1 = u0[k] + r * (z0[k] + r * y0[k])
        term2 = u0[k + 3] + r * (u0[k + 2] + r * u0[k + 1])
        term3 = u0[k + 6] + q * (u0[k + 5] + q * u0[k + 4])
        x[k] = term1 + t * (term2 + t * term3)
    return x


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 1:
        raise ValueError(f"loop 7 needs n >= 1, got {n}")

    layout = Layout()
    x = layout.array("x", n)
    y = layout.array("y", n)
    z = layout.array("z", n)
    u = layout.array("u", n + 6)

    rng = kernel_rng(NUMBER, n)
    y0 = rng.uniform(0.1, 1.0, n)
    z0 = rng.uniform(0.1, 1.0, n)
    u0 = rng.uniform(0.1, 1.0, n + 6)

    memory = layout.memory()
    y.write_to(memory, y0)
    z.write_to(memory, z0)
    u.write_to(memory, u0)

    expected_x = _reference(u0, y0, z0, n)

    b = ProgramBuilder("livermore-07")
    b.si(S(1), _R, comment="r")
    b.si(S(2), _T, comment="t")
    b.si(S(3), _Q, comment="q")
    b.ai(A(1), 0, comment="k")
    b.ai(A(0), n)
    b.label("loop")
    # term1 = u[k] + r*(z[k] + r*y[k])
    b.loads(S(4), A(1), y.base)
    b.fmul(S(4), S(1), S(4), comment="r*y[k]")
    b.loads(S(5), A(1), z.base)
    b.fadd(S(4), S(5), S(4))
    b.fmul(S(4), S(1), S(4))
    b.loads(S(5), A(1), u.base)
    b.fadd(S(4), S(5), S(4), comment="term1")
    # term2 = u[k+3] + r*(u[k+2] + r*u[k+1])
    b.loads(S(5), A(1), u.base + 1)
    b.fmul(S(5), S(1), S(5))
    b.loads(S(6), A(1), u.base + 2)
    b.fadd(S(5), S(6), S(5))
    b.fmul(S(5), S(1), S(5))
    b.loads(S(6), A(1), u.base + 3)
    b.fadd(S(5), S(6), S(5), comment="term2")
    # term3 = u[k+6] + q*(u[k+5] + q*u[k+4])
    b.loads(S(6), A(1), u.base + 4)
    b.fmul(S(6), S(3), S(6))
    b.loads(S(7), A(1), u.base + 5)
    b.fadd(S(6), S(7), S(6))
    b.fmul(S(6), S(3), S(6))
    b.loads(S(7), A(1), u.base + 6)
    b.fadd(S(6), S(7), S(6), comment="term3")
    # x[k] = term1 + t*(term2 + t*term3)
    b.fmul(S(6), S(2), S(6))
    b.fadd(S(5), S(5), S(6))
    b.fmul(S(5), S(2), S(5))
    b.fadd(S(4), S(4), S(5))
    b.stores(S(4), A(1), x.base)
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
