"""Livermore Loop 3 -- inner product (vectorizable).

Fortran original::

    Q = 0.0
    DO 3 k = 1,n
  3 Q = Q + Z(k)*X(k)

The accumulation is a floating-add recurrence in scalar code, but the loop
is classified vectorizable (a vector machine reduces it with a tree).  The
final value of Q is stored to memory so verification sees it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 3
NAME = "inner product"


def _reference(z0: np.ndarray, x0: np.ndarray) -> float:
    q = 0.0
    for zk, xk in zip(z0, x0):
        q += zk * xk
    return q


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 1:
        raise ValueError(f"loop 3 needs n >= 1, got {n}")

    layout = Layout()
    z = layout.array("z", n)
    x = layout.array("x", n)
    q = layout.scalar_slot("q")

    rng = kernel_rng(NUMBER, n)
    z0 = rng.uniform(0.1, 1.0, n)
    x0 = rng.uniform(0.1, 1.0, n)

    memory = layout.memory()
    z.write_to(memory, z0)
    x.write_to(memory, x0)

    expected_q = np.array([_reference(z0, x0)])

    b = ProgramBuilder("livermore-03")
    b.si(S(1), 0.0, comment="q")
    b.ai(A(1), 0, comment="k")
    b.ai(A(0), n)
    b.label("loop")
    b.loads(S(2), A(1), z.base)
    b.loads(S(3), A(1), x.base)
    b.fmul(S(2), S(2), S(3))
    b.fadd(S(1), S(1), S(2), comment="q += z[k]*x[k]")
    b.aadd(A(1), A(1), 1)
    b.asub(A(0), A(0), 1)
    b.jan("loop")
    b.ai(A(2), 0)
    b.stores(S(1), A(2), q.base, comment="write back q")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"q": expected_q},
        checked_arrays=("q",),
        trip_counts=(n,),
    )
