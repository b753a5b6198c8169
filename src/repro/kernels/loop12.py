"""Livermore Loop 12 -- first difference (vectorizable).

C form::

    for (k = 0; k < n; k++)
        x[k] = y[k+1] - y[k];

The simplest fully parallel loop in the suite: two loads, one subtract,
one store per independent iteration.  A naive scalar compiler reloads
``y[k+1]`` each iteration rather than forwarding it; we keep that
behaviour to stay close to the paper's compiler model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 12
NAME = "first difference"


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 1:
        raise ValueError(f"loop 12 needs n >= 1, got {n}")

    layout = Layout()
    x = layout.array("x", n)
    y = layout.array("y", n + 1)

    rng = kernel_rng(NUMBER, n)
    y0 = rng.uniform(0.1, 1.0, n + 1)

    memory = layout.memory()
    y.write_to(memory, y0)

    expected_x = y0[1:] - y0[:-1]

    b = ProgramBuilder("livermore-12")
    b.ai(A(1), 0, comment="k")
    b.ai(A(0), n)
    b.label("loop")
    b.loads(S(1), A(1), y.base + 1)
    b.loads(S(2), A(1), y.base)
    b.fsub(S(1), S(1), S(2))
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
        trip_counts=(n,),
    )
