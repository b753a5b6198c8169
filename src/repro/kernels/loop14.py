"""Livermore Loop 14 -- 1-D particle in cell (scalar).

C form (three phases)::

    for (k = 0; k < n; k++) {           /* phase 1: setup */
        vx[k] = 0.0;  xx[k] = 0.0;
        ix[k] = (long) grd[k];
        xi[k] = (double) ix[k];
        ex1[k]  = ex [ ix[k] - 1 ];
        dex1[k] = dex[ ix[k] - 1 ];
    }
    for (k = 0; k < n; k++) {           /* phase 2: push */
        vx[k] = vx[k] + ex1[k] + (xx[k] - xi[k])*dex1[k];
        xx[k] = xx[k] + vx[k] + flx;
        ir[k] = xx[k];                  /* truncate */
        rx[k] = xx[k] - ir[k];
        ir[k] = (ir[k] & 2048-1) + 1;
        xx[k] = rx[k] + ir[k];
    }
    for (k = 0; k < n; k++) {           /* phase 3: charge deposit */
        rh[ ir[k]-1 ] += 1.0 - rx[k];
        rh[ ir[k]   ] += rx[k];
    }

Exercises float<->int conversion, the logical unit for the wrap mask, and
data-dependent scatter in phase 3.

Association note: phase 2 computes ``vx + ((xx-xi)*dex1 + ex1)`` (the
natural order for this encoding); the reference mirrors it exactly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 14
NAME = "1-D particle in cell"

_CELLS = 2048
_MASK = _CELLS - 1
_FLX = 0.001


def _reference(grd0, ex0, dex0, n):
    vx = np.zeros(n)
    xx = np.zeros(n)
    ix = np.zeros(n)
    xi = np.zeros(n)
    ex1 = np.zeros(n)
    dex1 = np.zeros(n)
    ir = np.zeros(n)
    rx = np.zeros(n)
    rh = np.zeros(_CELLS + 2)
    for k in range(n):
        ixk = int(math.trunc(grd0[k]))
        ix[k] = float(ixk)
        xi[k] = float(ixk)
        ex1[k] = ex0[ixk - 1]
        dex1[k] = dex0[ixk - 1]
    for k in range(n):
        vxk = vx[k] + ((xx[k] - xi[k]) * dex1[k] + ex1[k])
        vx[k] = vxk
        xxk = (xx[k] + vxk) + _FLX
        raw = int(math.trunc(xxk))
        rxk = xxk - float(raw)
        irk = (raw & _MASK) + 1
        rx[k] = rxk
        ir[k] = float(irk)
        xx[k] = rxk + float(irk)
    for k in range(n):
        irk = int(ir[k])
        rh[irk - 1] = rh[irk - 1] + (1.0 - rx[k])
        rh[irk] = rh[irk] + rx[k]
    return vx, xx, ix, xi, ex1, dex1, ir, rx, rh


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 1:
        raise ValueError(f"loop 14 needs n >= 1, got {n}")

    layout = Layout()
    grd = layout.array("grd", n)
    ex = layout.array("ex", _CELLS)
    dex = layout.array("dex", _CELLS)
    vx = layout.array("vx", n)
    xx = layout.array("xx", n)
    ix = layout.array("ix", n)
    xi = layout.array("xi", n)
    ex1 = layout.array("ex1", n)
    dex1 = layout.array("dex1", n)
    ir = layout.array("ir", n)
    rx = layout.array("rx", n)
    rh = layout.array("rh", _CELLS + 2)

    rng = kernel_rng(NUMBER, n)
    grd0 = rng.uniform(1.0, 512.0, n)
    ex0 = rng.uniform(0.0, 0.5, _CELLS)
    dex0 = rng.uniform(0.0, 0.05, _CELLS)

    memory = layout.memory()
    grd.write_to(memory, grd0)
    ex.write_to(memory, ex0)
    dex.write_to(memory, dex0)

    e_vx, e_xx, e_ix, e_xi, e_ex1, e_dex1, e_ir, e_rx, e_rh = _reference(
        grd0, ex0, dex0, n
    )

    b = ProgramBuilder("livermore-14")
    # ---- phase 1: setup -------------------------------------------------
    b.si(S(1), 0.0)
    b.ai(A(1), 0, comment="k")
    b.ai(A(0), n)
    b.label("setup")
    b.stores(S(1), A(1), vx.base, comment="vx[k] = 0")
    b.stores(S(1), A(1), xx.base, comment="xx[k] = 0")
    b.loads(S(2), A(1), grd.base)
    b.fix(A(2), S(2), comment="ix[k] = (int)grd[k]")
    b.storea(A(2), A(1), ix.base)
    b.float_(S(3), A(2))
    b.stores(S(3), A(1), xi.base, comment="xi[k] = (double)ix[k]")
    b.loads(S(4), A(2), ex.base - 1, comment="ex[ix[k]-1]")
    b.stores(S(4), A(1), ex1.base)
    b.loads(S(4), A(2), dex.base - 1)
    b.stores(S(4), A(1), dex1.base)
    b.aadd(A(1), A(1), 1)
    b.asub(A(0), A(0), 1)
    b.jan("setup")
    # ---- phase 2: push --------------------------------------------------
    b.si(S(6), _MASK, comment="cell wrap mask")
    b.si(S(7), _FLX, comment="flx")
    b.ai(A(1), 0)
    b.ai(A(0), n)
    b.label("push")
    b.loads(S(1), A(1), xx.base)
    b.loads(S(2), A(1), xi.base)
    b.fsub(S(2), S(1), S(2), comment="xx - xi")
    b.loads(S(3), A(1), dex1.base)
    b.fmul(S(2), S(2), S(3))
    b.loads(S(3), A(1), ex1.base)
    b.fadd(S(2), S(2), S(3))
    b.loads(S(3), A(1), vx.base)
    b.fadd(S(3), S(3), S(2), comment="new vx")
    b.stores(S(3), A(1), vx.base)
    b.fadd(S(1), S(1), S(3))
    b.fadd(S(1), S(1), S(7), comment="xx + vx + flx")
    b.fix(A(2), S(1), comment="raw cell index")
    b.float_(S(4), A(2))
    b.fsub(S(4), S(1), S(4), comment="rx = fractional part")
    b.stores(S(4), A(1), rx.base)
    b.ats(S(5), A(2))
    b.sand(S(5), S(5), S(6), comment="wrap into [0, 2047]")
    b.sta(A(2), S(5))
    b.aadd(A(2), A(2), 1, comment="ir = wrapped + 1")
    b.storea(A(2), A(1), ir.base)
    b.float_(S(5), A(2))
    b.fadd(S(1), S(4), S(5), comment="xx = rx + ir")
    b.stores(S(1), A(1), xx.base)
    b.aadd(A(1), A(1), 1)
    b.asub(A(0), A(0), 1)
    b.jan("push")
    # ---- phase 3: charge deposit ----------------------------------------
    b.si(S(7), 1.0)
    b.ai(A(1), 0)
    b.ai(A(0), n)
    b.label("deposit")
    b.loada(A(2), A(1), ir.base)
    b.loads(S(1), A(1), rx.base)
    b.fsub(S(2), S(7), S(1), comment="1 - rx")
    b.loads(S(3), A(2), rh.base - 1)
    b.fadd(S(3), S(3), S(2))
    b.stores(S(3), A(2), rh.base - 1, comment="rh[ir-1] += 1-rx")
    b.loads(S(3), A(2), rh.base)
    b.fadd(S(3), S(3), S(1))
    b.stores(S(3), A(2), rh.base, comment="rh[ir] += rx")
    b.aadd(A(1), A(1), 1)
    b.asub(A(0), A(0), 1)
    b.jan("deposit")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={
            "vx": e_vx, "xx": e_xx, "ix": e_ix, "xi": e_xi,
            "ex1": e_ex1, "dex1": e_dex1, "ir": e_ir, "rx": e_rx, "rh": e_rh,
        },
        checked_arrays=(
            "vx", "xx", "ix", "xi", "ex1", "dex1", "ir", "rx", "rh",
        ),
        trip_counts=(n, n, n),
    )
