"""Livermore Loop 6 -- general linear recurrence equations (scalar).

C form::

    for (i = 1; i < n; i++)
        for (k = 0; k < i; k++)
            w[i] += b[k][i] * w[(i-k)-1];

A triangular double loop: iteration *i* accumulates *i* products into
``w[i]``, which then feeds later iterations.  The accumulation is kept
register-resident across the inner loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 6
NAME = "general linear recurrence"


def _reference(w0: np.ndarray, b0: np.ndarray, n: int) -> np.ndarray:
    w = w0.copy()
    for i in range(1, n):
        acc = w[i]
        for k in range(i):
            acc += b0[k, i] * w[(i - k) - 1]
        w[i] = acc
    return w


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 2:
        raise ValueError(f"loop 6 needs n >= 2, got {n}")

    layout = Layout()
    w = layout.array("w", n)
    bmat = layout.array("b", n, n)

    rng = kernel_rng(NUMBER, n)
    w0 = rng.uniform(0.01, 0.1, n)
    b0 = rng.uniform(0.0, 1.0 / n, (n, n))

    memory = layout.memory()
    w.write_to(memory, w0)
    bmat.write_to(memory, b0)

    expected_w = _reference(w0, b0, n)

    b = ProgramBuilder("livermore-06")
    b.ai(A(3), 1, comment="i")
    b.ai(A(6), n - 1, comment="outer trip count")
    b.label("outer")
    b.loads(S(1), A(3), w.base, comment="w[i] accumulator")
    b.amove(A(1), A(3), comment="b index: k*n + i starts at i")
    b.asub(A(2), A(3), 1, comment="w index: (i-k)-1 starts at i-1")
    b.amove(A(0), A(3), comment="inner trip = i")
    b.label("inner")
    b.loads(S(2), A(1), bmat.base, comment="b[k][i]")
    b.loads(S(3), A(2), w.base, comment="w[(i-k)-1]")
    b.fmul(S(2), S(2), S(3))
    b.fadd(S(1), S(1), S(2))
    b.aadd(A(1), A(1), n, comment="next row of b")
    b.asub(A(2), A(2), 1)
    b.asub(A(0), A(0), 1)
    b.jan("inner")
    b.stores(S(1), A(3), w.base, comment="w[i]")
    b.aadd(A(3), A(3), 1)
    b.asub(A(6), A(6), 1)
    b.amove(A(0), A(6))
    b.jan("outer")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"w": expected_w},
        checked_arrays=("w",),
        trip_counts=tuple(range(1, n)),  # inner trip = i
    )
