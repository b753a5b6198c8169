"""Livermore Loop 2 -- ICCG excerpt (vectorizable).

C form of the incomplete Cholesky conjugate gradient excerpt::

    ii = n;  ipntp = 0;
    do {
        ipnt  = ipntp;
        ipntp = ipntp + ii;
        ii    = ii / 2;
        i     = ipntp - 1;
        for (k = ipnt+1; k < ipntp; k = k+2) {
            i++;
            x[i] = x[k] - v[k]*x[k-1] - v[k+1]*x[k+1];
        }
    } while (ii > 0);

The problem size must be a power of two so every halving pass has an even
element count.  The ``ii /= 2`` is done the CRAY way: transmit to an S
register, shift right on the scalar shift unit, transmit back.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 2
NAME = "ICCG excerpt"


def _reference(x0: np.ndarray, v0: np.ndarray, n: int) -> np.ndarray:
    x = x0.copy()
    ii = n
    ipntp = 0
    while ii > 0:
        ipnt = ipntp
        ipntp += ii
        ii //= 2
        i = ipntp - 1
        for k in range(ipnt + 1, ipntp, 2):
            i += 1
            x[i] = (x[k] - v0[k] * x[k - 1]) - (v0[k + 1] * x[k + 1])
    return x


def build(n: Optional[int] = None) -> KernelInstance:
    """Build the kernel; *n* must be a power of two."""
    n = default_size(NUMBER) if n is None else n
    if n < 2 or n & (n - 1):
        raise ValueError(f"loop 2 needs a power-of-two n >= 2, got {n}")

    size = 2 * n + 4
    layout = Layout()
    x = layout.array("x", size)
    v = layout.array("v", size)

    rng = kernel_rng(NUMBER, n)
    x0 = rng.uniform(0.1, 1.0, size)
    v0 = rng.uniform(0.0, 0.1, size)

    memory = layout.memory()
    x.write_to(memory, x0)
    v.write_to(memory, v0)

    expected_x = _reference(x0, v0, n)

    b = ProgramBuilder("livermore-02")
    b.ai(A(3), n, comment="ii")
    b.ai(A(4), 0, comment="ipntp")
    b.label("outer")
    b.amove(A(5), A(4), comment="ipnt = ipntp")
    b.aadd(A(4), A(4), A(3), comment="ipntp += ii")
    b.ats(S(6), A(3))
    b.sshr(S(6), S(6), 1, comment="ii / 2 on the shift unit")
    b.sta(A(3), S(6), comment="ii //= 2")
    b.amove(A(0), A(3), comment="inner trip = new ii")
    b.jaz("skip", comment="last pass has an empty body")
    b.aadd(A(1), A(5), 1, comment="k = ipnt + 1")
    b.amove(A(2), A(4), comment="first i = ipntp")
    b.label("inner")
    b.loads(S(1), A(1), x.base, comment="x[k]")
    b.loads(S(2), A(1), v.base, comment="v[k]")
    b.loads(S(3), A(1), x.base - 1, comment="x[k-1]")
    b.loads(S(4), A(1), v.base + 1, comment="v[k+1]")
    b.loads(S(5), A(1), x.base + 1, comment="x[k+1]")
    b.fmul(S(2), S(2), S(3), comment="v[k]*x[k-1]")
    b.fmul(S(4), S(4), S(5), comment="v[k+1]*x[k+1]")
    b.fsub(S(1), S(1), S(2))
    b.fsub(S(1), S(1), S(4))
    b.stores(S(1), A(2), x.base, comment="x[i]")
    b.aadd(A(1), A(1), 2, comment="k += 2")
    b.aadd(A(2), A(2), 1, comment="i += 1")
    b.asub(A(0), A(0), 1)
    b.jan("inner")
    b.label("skip")
    b.amove(A(0), A(3))
    b.jan("outer", comment="while (ii > 0)")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"x": expected_x},
        checked_arrays=("x",),
        # One inner pass per halving of ii: n/2, n/4, ..., 1 (the empty
        # last pass is skipped).
        trip_counts=tuple(n >> k for k in range(1, n.bit_length())),
    )
