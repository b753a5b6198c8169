"""Livermore Loop 4 -- banded linear equations (vectorizable).

C form::

    m = (n - 7) / 2;
    for (k = 6; k < n; k = k + m) {
        lw = k - 6;
        temp = x[k-1];
        for (j = 4; j < n; j = j + 5) {
            temp -= x[lw] * y[j];
            lw++;
        }
        x[k-1] = y[4] * temp;
    }

The middle loop visits three k values; the inner loop is a strided
dot-product-like reduction.  The middle loop uses a separate counter
register and moves it into A0 for the loop-closing test, the way CRAY
code must (only A0 can be branched on).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 4
NAME = "banded linear equations"


def _k_values(n: int):
    m = (n - 7) // 2
    return list(range(6, n, m)), m


def _reference(x0: np.ndarray, y0: np.ndarray, n: int) -> np.ndarray:
    x = x0.copy()
    ks, _ = _k_values(n)
    for k in ks:
        lw = k - 6
        temp = x[k - 1]
        for j in range(4, n, 5):
            temp -= x[lw] * y0[j]
            lw += 1
        x[k - 1] = y0[4] * temp
    return x


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 20:
        raise ValueError(f"loop 4 needs n >= 20, got {n}")

    ks, m = _k_values(n)
    inner_trip = len(range(4, n, 5))
    # lw runs from k-6 for inner_trip steps; the last k needs the most room.
    # (The original LFK sized x at 1001 words regardless of the loop bound.)
    xsize = ks[-1] - 6 + inner_trip + 4

    layout = Layout()
    x = layout.array("x", xsize)
    y = layout.array("y", n)

    rng = kernel_rng(NUMBER, n)
    x0 = rng.uniform(0.1, 1.0, xsize)
    y0 = rng.uniform(0.0, 0.05, n)

    memory = layout.memory()
    x.write_to(memory, x0)
    y.write_to(memory, y0)

    expected_x = _reference(x0, y0, n)

    b = ProgramBuilder("livermore-04")
    b.ai(A(3), 6, comment="k")
    b.ai(A(6), len(ks), comment="middle trip count")
    b.ai(A(5), 0, comment="base for y[4] load")
    b.label("middle")
    b.asub(A(7), A(3), 6, comment="lw = k - 6")
    b.loads(S(1), A(3), x.base - 1, comment="temp = x[k-1]")
    b.ai(A(1), 4, comment="j")
    b.ai(A(0), inner_trip)
    b.label("inner")
    b.loads(S(2), A(1), y.base, comment="y[j]")
    b.loads(S(3), A(7), x.base, comment="x[lw]")
    b.fmul(S(2), S(2), S(3))
    b.fsub(S(1), S(1), S(2), comment="temp -= x[lw]*y[j]")
    b.aadd(A(1), A(1), 5)
    b.aadd(A(7), A(7), 1)
    b.asub(A(0), A(0), 1)
    b.jan("inner")
    b.loads(S(4), A(5), y.base + 4, comment="y[4]")
    b.fmul(S(1), S(4), S(1))
    b.stores(S(1), A(3), x.base - 1, comment="x[k-1] = y[4]*temp")
    b.aadd(A(3), A(3), m, comment="k += m")
    b.asub(A(6), A(6), 1)
    b.amove(A(0), A(6), comment="only A0 is branchable")
    b.jan("middle")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"x": expected_x},
        checked_arrays=("x",),
        trip_counts=(inner_trip,),
    )
