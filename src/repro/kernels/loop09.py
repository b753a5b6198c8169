"""Livermore Loop 9 -- integrate predictors (vectorizable).

C form::

    for (i = 0; i < n; i++)
        px[i][0] = dm28*px[i][12] + dm27*px[i][11] + dm26*px[i][10] +
                   dm25*px[i][ 9] + dm24*px[i][ 8] + dm23*px[i][ 7] +
                   dm22*px[i][ 6] + c0*( px[i][4] + px[i][5] ) + px[i][2];

A wide, fully parallel 13-point dot product per row.  The eight floating
constants live in T registers (backup file) and move to S on demand.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S, T
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 9
NAME = "integrate predictors"

_DM = {
    "dm22": 0.10, "dm23": 0.12, "dm24": 0.14, "dm25": 0.17,
    "dm26": 0.20, "dm27": 0.25, "dm28": 0.33,
}
_C0 = 0.45

_COLS = 13


def _reference(px0: np.ndarray, n: int) -> np.ndarray:
    px = px0.copy()
    for i in range(n):
        acc = _DM["dm28"] * px[i, 12]
        acc = acc + _DM["dm27"] * px[i, 11]
        acc = acc + _DM["dm26"] * px[i, 10]
        acc = acc + _DM["dm25"] * px[i, 9]
        acc = acc + _DM["dm24"] * px[i, 8]
        acc = acc + _DM["dm23"] * px[i, 7]
        acc = acc + _DM["dm22"] * px[i, 6]
        acc = acc + _C0 * (px[i, 4] + px[i, 5])
        acc = acc + px[i, 2]
        px[i, 0] = acc
    return px


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 1:
        raise ValueError(f"loop 9 needs n >= 1, got {n}")

    layout = Layout()
    px = layout.array("px", n, _COLS)

    rng = kernel_rng(NUMBER, n)
    px0 = rng.uniform(0.1, 1.0, (n, _COLS))

    memory = layout.memory()
    px.write_to(memory, px0)

    expected_px = _reference(px0, n)

    dm_regs = {name: T(i) for i, name in enumerate(_DM)}
    c0_reg = T(7)

    b = ProgramBuilder("livermore-09")
    for name, treg in dm_regs.items():
        b.si(S(1), _DM[name], comment=name)
        b.smove(treg, S(1))
    b.si(S(1), _C0, comment="c0")
    b.smove(c0_reg, S(1))
    b.ai(A(1), 0, comment="row base = i*13")
    b.ai(A(0), n)
    b.label("loop")
    b.smove(S(1), dm_regs["dm28"])
    b.loads(S(2), A(1), px.base + 12)
    b.fmul(S(1), S(1), S(2), comment="accumulator starts at dm28*px[i][12]")
    for name, col in (
        ("dm27", 11), ("dm26", 10), ("dm25", 9),
        ("dm24", 8), ("dm23", 7), ("dm22", 6),
    ):
        b.smove(S(3), dm_regs[name])
        b.loads(S(2), A(1), px.base + col)
        b.fmul(S(3), S(3), S(2))
        b.fadd(S(1), S(1), S(3))
    b.smove(S(3), c0_reg)
    b.loads(S(2), A(1), px.base + 4)
    b.loads(S(4), A(1), px.base + 5)
    b.fadd(S(2), S(2), S(4))
    b.fmul(S(3), S(3), S(2), comment="c0*(px[i][4] + px[i][5])")
    b.fadd(S(1), S(1), S(3))
    b.loads(S(2), A(1), px.base + 2)
    b.fadd(S(1), S(1), S(2))
    b.stores(S(1), A(1), px.base, comment="px[i][0]")
    b.aadd(A(1), A(1), _COLS)
    b.asub(A(0), A(0), 1)
    b.jan("loop")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"px": expected_px},
        checked_arrays=("px",),
        trip_counts=(n,),
    )
