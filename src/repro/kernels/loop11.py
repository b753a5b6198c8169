"""Livermore Loop 11 -- first sum (scalar).

C form::

    x[0] = y[0];
    for (k = 1; k < n; k++)
        x[k] = x[k-1] + y[k];

A prefix-sum recurrence: one floating add per iteration on the critical
path.  The running sum stays register-resident.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 11
NAME = "first sum"


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 2:
        raise ValueError(f"loop 11 needs n >= 2, got {n}")

    layout = Layout()
    x = layout.array("x", n)
    y = layout.array("y", n)

    rng = kernel_rng(NUMBER, n)
    y0 = rng.uniform(0.1, 1.0, n)

    memory = layout.memory()
    y.write_to(memory, y0)

    expected_x = np.cumsum(y0)

    b = ProgramBuilder("livermore-11")
    b.ai(A(1), 0)
    b.loads(S(1), A(1), y.base, comment="running sum = y[0]")
    b.stores(S(1), A(1), x.base, comment="x[0] = y[0]")
    b.ai(A(1), 1, comment="k")
    b.ai(A(0), n - 1)
    b.label("loop")
    b.loads(S(2), A(1), y.base)
    b.fadd(S(1), S(1), S(2), comment="x[k] = x[k-1] + y[k]")
    b.stores(S(1), A(1), x.base)
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
        trip_counts=(n - 1,),
    )
