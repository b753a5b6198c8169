"""Livermore Loop 5 -- tri-diagonal elimination, below diagonal (scalar).

C form::

    for (i = 1; i < n; i++)
        x[i] = z[i] * (y[i] - x[i-1]);

A first-order linear recurrence: every iteration needs the previous
iteration's result, so the dataflow critical path is one floating subtract
plus one floating multiply per iteration.  The generated code keeps
``x[i-1]`` register-resident across iterations, as the CRAY Fortran
compiler did.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 5
NAME = "tri-diagonal elimination"


def _reference(x0: np.ndarray, y0: np.ndarray, z0: np.ndarray) -> np.ndarray:
    x = x0.copy()
    for i in range(1, len(x)):
        x[i] = z0[i] * (y0[i] - x[i - 1])
    return x


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 2:
        raise ValueError(f"loop 5 needs n >= 2, got {n}")

    layout = Layout()
    x = layout.array("x", n)
    y = layout.array("y", n)
    z = layout.array("z", n)

    rng = kernel_rng(NUMBER, n)
    x0 = rng.uniform(0.1, 1.0, n)
    y0 = rng.uniform(0.1, 1.0, n)
    z0 = rng.uniform(0.1, 0.9, n)

    memory = layout.memory()
    x.write_to(memory, x0)
    y.write_to(memory, y0)
    z.write_to(memory, z0)

    expected_x = _reference(x0, y0, z0)

    b = ProgramBuilder("livermore-05")
    b.ai(A(1), 1, comment="i")
    b.ai(A(0), n - 1)
    b.loads(S(1), A(1), x.base - 1, comment="x[0], register-resident recurrence")
    b.label("loop")
    b.loads(S(2), A(1), y.base)
    b.loads(S(3), A(1), z.base)
    b.fsub(S(2), S(2), S(1), comment="y[i] - x[i-1]")
    b.fmul(S(1), S(3), S(2), comment="x[i] = z[i]*(...), feeds next iteration")
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
