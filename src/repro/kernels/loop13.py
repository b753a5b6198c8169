"""Livermore Loop 13 -- 2-D particle in cell (scalar).

C form (grid 64x64)::

    for (ip = 0; ip < n; ip++) {
        i1 = p[ip][0];  j1 = p[ip][1];        /* truncate to int */
        i1 &= 64-1;     j1 &= 64-1;
        p[ip][2] += b[j1][i1];
        p[ip][3] += c[j1][i1];
        p[ip][0] += p[ip][2];
        p[ip][1] += p[ip][3];
        i2 = p[ip][0];  j2 = p[ip][1];
        i2 &= 64-1;     j2 &= 64-1;
        p[ip][0] += y[i2+32];
        p[ip][1] += z[j2+32];
        i2 += e[i2+32];
        j2 += f[j2+32];
        h[j2][i2] += 1.0;
    }

A gather/scatter particle push with data-dependent addressing.  The
``& 63`` masks are done the CRAY way: FIX the float to an address
register, transmit to the scalar file, AND on the logical unit, transmit
back.  The deflection arrays ``e``/``f`` hold 0/1 so the final cell index
stays on the grid.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 13
NAME = "2-D particle in cell"

_GRID = 64
_MASK = _GRID - 1


def _reference(p0, bm, cm, y0, z0, e0, f0, h0, n):
    p = p0.copy()
    h = h0.copy()
    for ip in range(n):
        i1 = int(math.trunc(p[ip, 0])) & _MASK
        j1 = int(math.trunc(p[ip, 1])) & _MASK
        p[ip, 2] = p[ip, 2] + bm[j1, i1]
        p[ip, 3] = p[ip, 3] + cm[j1, i1]
        p[ip, 0] = p[ip, 0] + p[ip, 2]
        p[ip, 1] = p[ip, 1] + p[ip, 3]
        i2 = int(math.trunc(p[ip, 0])) & _MASK
        j2 = int(math.trunc(p[ip, 1])) & _MASK
        p[ip, 0] = p[ip, 0] + y0[i2 + 32]
        p[ip, 1] = p[ip, 1] + z0[j2 + 32]
        i2 += int(math.trunc(e0[i2 + 32]))
        j2 += int(math.trunc(f0[j2 + 32]))
        h[j2, i2] = h[j2, i2] + 1.0
    return p, h


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 1:
        raise ValueError(f"loop 13 needs n >= 1, got {n}")

    layout = Layout()
    p = layout.array("p", n, 4)
    bm = layout.array("b", _GRID, _GRID)
    cm = layout.array("c", _GRID, _GRID)
    y = layout.array("y", _GRID + 32)
    z = layout.array("z", _GRID + 32)
    e = layout.array("e", _GRID + 32)
    f = layout.array("f", _GRID + 32)
    h = layout.array("h", _GRID, _GRID)

    rng = kernel_rng(NUMBER, n)
    p0 = np.empty((n, 4))
    p0[:, 0] = rng.uniform(0.0, _GRID, n)  # positions
    p0[:, 1] = rng.uniform(0.0, _GRID, n)
    p0[:, 2] = rng.uniform(-2.0, 2.0, n)  # velocities
    p0[:, 3] = rng.uniform(-2.0, 2.0, n)
    bm0 = rng.uniform(0.0, 0.5, (_GRID, _GRID))
    cm0 = rng.uniform(0.0, 0.5, (_GRID, _GRID))
    y0 = rng.uniform(0.0, 1.0, _GRID + 32)
    z0 = rng.uniform(0.0, 1.0, _GRID + 32)
    # Deflections: 0 or 1, forced to 0 at the top edge so indices stay on-grid.
    e0 = rng.integers(0, 2, _GRID + 32).astype(np.float64)
    f0 = rng.integers(0, 2, _GRID + 32).astype(np.float64)
    e0[_GRID + 31] = 0.0
    f0[_GRID + 31] = 0.0
    h0 = np.zeros((_GRID, _GRID))

    memory = layout.memory()
    for spec, data in (
        (p, p0), (bm, bm0), (cm, cm0), (y, y0), (z, z0), (e, e0), (f, f0),
    ):
        spec.write_to(memory, data)

    expected_p, expected_h = _reference(p0, bm0, cm0, y0, z0, e0, f0, h0, n)

    b = ProgramBuilder("livermore-13")
    b.si(S(7), _MASK, comment="grid mask (integer word)")
    b.si(S(6), 1.0)
    b.ai(A(2), 0, comment="particle row base = ip*4")
    b.ai(A(0), n)
    b.label("loop")
    b.loads(S(1), A(2), p.base + 0, comment="p[ip][0]")
    b.fix(A(3), S(1))
    b.ats(S(2), A(3))
    b.sand(S(2), S(2), S(7), comment="i1 &= 63")
    b.sta(A(3), S(2), comment="i1")
    b.loads(S(4), A(2), p.base + 1, comment="p[ip][1]")
    b.fix(A(4), S(4))
    b.ats(S(2), A(4))
    b.sand(S(2), S(2), S(7))
    b.sta(A(4), S(2), comment="j1")
    b.amul(A(5), A(4), _GRID)
    b.aadd(A(5), A(5), A(3), comment="j1*64 + i1")
    b.loads(S(2), A(5), bm.base)
    b.loads(S(3), A(2), p.base + 2)
    b.fadd(S(3), S(3), S(2), comment="p2 += b[j1][i1]")
    b.stores(S(3), A(2), p.base + 2)
    b.loads(S(2), A(5), cm.base)
    b.loads(S(5), A(2), p.base + 3)
    b.fadd(S(5), S(5), S(2), comment="p3 += c[j1][i1]")
    b.stores(S(5), A(2), p.base + 3)
    b.fadd(S(1), S(1), S(3), comment="p0 += p2")
    b.stores(S(1), A(2), p.base + 0)
    b.fadd(S(4), S(4), S(5), comment="p1 += p3")
    b.stores(S(4), A(2), p.base + 1)
    b.fix(A(3), S(1))
    b.ats(S(2), A(3))
    b.sand(S(2), S(2), S(7))
    b.sta(A(3), S(2), comment="i2")
    b.fix(A(4), S(4))
    b.ats(S(2), A(4))
    b.sand(S(2), S(2), S(7))
    b.sta(A(4), S(2), comment="j2")
    b.loads(S(2), A(3), y.base + 32)
    b.fadd(S(1), S(1), S(2), comment="p0 += y[i2+32]")
    b.stores(S(1), A(2), p.base + 0)
    b.loads(S(2), A(4), z.base + 32)
    b.fadd(S(4), S(4), S(2), comment="p1 += z[j2+32]")
    b.stores(S(4), A(2), p.base + 1)
    b.loada(A(6), A(3), e.base + 32)
    b.aadd(A(3), A(3), A(6), comment="i2 += e[i2+32]")
    b.loada(A(6), A(4), f.base + 32)
    b.aadd(A(4), A(4), A(6), comment="j2 += f[j2+32]")
    b.amul(A(5), A(4), _GRID)
    b.aadd(A(5), A(5), A(3))
    b.loads(S(2), A(5), h.base)
    b.fadd(S(2), S(2), S(6), comment="h[j2][i2] += 1.0")
    b.stores(S(2), A(5), h.base)
    b.aadd(A(2), A(2), 4)
    b.asub(A(0), A(0), 1)
    b.jan("loop")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"p": expected_p, "h": expected_h},
        checked_arrays=("p", "h"),
        trip_counts=(n,),
    )
