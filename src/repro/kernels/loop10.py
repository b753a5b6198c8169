"""Livermore Loop 10 -- difference predictors (vectorizable).

C form::

    for (i = 0; i < n; i++) {
        ar        = cx[i][4];
        br        = ar - px[i][4];   px[i][4]  = ar;
        cr        = br - px[i][5];   px[i][5]  = br;
        ar        = cr - px[i][6];   px[i][6]  = cr;
        br        = ar - px[i][7];   px[i][7]  = ar;
        cr        = br - px[i][8];   px[i][8]  = br;
        ar        = cr - px[i][9];   px[i][9]  = cr;
        br        = ar - px[i][10];  px[i][10] = ar;
        cr        = br - px[i][11];  px[i][11] = br;
        px[i][13] = cr - px[i][12];
        px[i][12] = cr;
    }

Within a row the subtract chain is strictly serial, but rows are
independent of each other -- a vectorizable loop with a long per-element
dependence chain.  The three rotating temporaries ``ar``/``br``/``cr``
map onto three S registers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 10
NAME = "difference predictors"

_COLS = 14


def _reference(px0: np.ndarray, cx0: np.ndarray, n: int) -> np.ndarray:
    px = px0.copy()
    for i in range(n):
        ar = cx0[i, 4]
        br = ar - px[i, 4]
        px[i, 4] = ar
        cr = br - px[i, 5]
        px[i, 5] = br
        ar = cr - px[i, 6]
        px[i, 6] = cr
        br = ar - px[i, 7]
        px[i, 7] = ar
        cr = br - px[i, 8]
        px[i, 8] = br
        ar = cr - px[i, 9]
        px[i, 9] = cr
        br = ar - px[i, 10]
        px[i, 10] = ar
        cr = br - px[i, 11]
        px[i, 11] = br
        px[i, 13] = cr - px[i, 12]
        px[i, 12] = cr
    return px


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 1:
        raise ValueError(f"loop 10 needs n >= 1, got {n}")

    layout = Layout()
    px = layout.array("px", n, _COLS)
    cx = layout.array("cx", n, _COLS)

    rng = kernel_rng(NUMBER, n)
    px0 = rng.uniform(0.1, 1.0, (n, _COLS))
    cx0 = rng.uniform(0.1, 1.0, (n, _COLS))

    memory = layout.memory()
    px.write_to(memory, px0)
    cx.write_to(memory, cx0)

    expected_px = _reference(px0, cx0, n)

    b = ProgramBuilder("livermore-10")
    b.ai(A(1), 0, comment="row base = i*14")
    b.ai(A(0), n)
    b.label("loop")
    b.loads(S(1), A(1), cx.base + 4, comment="ar = cx[i][4]")
    # Rotate ar/br/cr through S1/S2/S3 down the difference chain.
    regs = [S(1), S(2), S(3)]
    for step, col in enumerate(range(4, 12)):
        prev = regs[step % 3]
        cur = regs[(step + 1) % 3]
        b.loads(cur, A(1), px.base + col)
        b.fsub(cur, prev, cur, comment=f"chain step at column {col}")
        b.stores(prev, A(1), px.base + col)
    last = regs[(8 + 0) % 3]  # the final 'cr'
    b.loads(S(1), A(1), px.base + 12)
    b.fsub(S(1), last, S(1))
    b.stores(S(1), A(1), px.base + 13)
    b.stores(last, A(1), px.base + 12)
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
