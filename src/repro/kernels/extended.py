"""Extended workloads: Livermore kernels beyond the paper's 14.

The paper uses the original 14 Lawrence Livermore Loops; the later LFK
suite adds ten more.  Four of them exercise behaviours the first 14 do
not, so they ship here as *extended* workloads (never mixed into the
paper-table experiments; the trace-source spec ``kernel:18`` names one,
and the ``extended-kernels`` plan runs all four):

* **18 — 2-D explicit hydrodynamics**: the largest kernel; contains real
  divisions, synthesised the CRAY way (FRECIP + one Newton step + multiply).
* **19 — general linear recurrence**: a forward and a backward recurrence
  over the same arrays.
* **21 — matrix·matrix product**: the classic triple loop.
* **24 — first minimum**: data-dependent conditional branches inside the
  loop body (the paper's loops only branch on trip counts).

Each follows the same contract as the core kernels: assembly encoding,
NumPy/Python reference, deterministic data, `verify()`/`trace()`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S, T
from .common import KernelInstance, Layout, kernel_rng

#: Extended kernel numbers available from :func:`build_extended`.
EXTENDED_LOOPS: Tuple[int, ...] = (18, 19, 21, 24)

#: Default problem size per extended kernel.
EXTENDED_SIZES: Dict[int, int] = {18: 10, 19: 128, 21: 10, 24: 200}


def build_extended(number: int, n: Optional[int] = None) -> KernelInstance:
    """Build extended Livermore kernel *number* (18, 19, 21 or 24).

    The instance's trace-source spec is ``kernel:<number>:n=<n>``.
    """
    try:
        builder = _BUILDERS[number]
    except KeyError:
        raise ValueError(
            f"no extended kernel numbered {number}; available: {EXTENDED_LOOPS}"
        ) from None
    instance = builder(n if n is not None else EXTENDED_SIZES[number])
    return dataclasses.replace(
        instance, source=f"kernel:{number}:n={instance.n}"
    )


# ----------------------------------------------------------------------
# helper: CRAY-style division  q = num / den
# ----------------------------------------------------------------------


def _emit_divide(b: ProgramBuilder, dest, num, den, tmp, two):
    """``dest <- num / den`` via reciprocal approximation + Newton step.

    Math (exact in the interpreter, ~1 ulp vs '/' in general):
        r0 = recip(den); r = r0 * (2 - den*r0); dest = num * r.
    Clobbers *tmp*; *two* must hold 2.0.
    """
    b.frecip(dest, den, comment="reciprocal approximation")
    b.fmul(tmp, den, dest)
    b.fsub(tmp, two, tmp)
    b.fmul(dest, dest, tmp, comment="Newton-corrected reciprocal")
    b.fmul(dest, num, dest)


def _py_divide(num: float, den: float) -> float:
    """Mirror of :func:`_emit_divide` for the references."""
    r0 = 1.0 / den
    r = r0 * (2.0 - den * r0)
    return num * r


# ----------------------------------------------------------------------
# kernel 18: 2-D explicit hydrodynamics fragment
# ----------------------------------------------------------------------

_K18_ROWS = 7  # the LFK fixes the k dimension
_K18_T = 0.0037
_K18_S = 0.0041


def _reference_18(zm, zp, zq, zr_in, zz_in, n):
    cols = n + 1
    za = np.zeros((_K18_ROWS, cols))
    zb = np.zeros((_K18_ROWS, cols))
    zu = np.zeros((_K18_ROWS, cols))
    zv = np.zeros((_K18_ROWS, cols))
    zr = zr_in.copy()
    zz = zz_in.copy()
    for k in range(1, 6):
        for j in range(1, n):
            num = ((zp[k + 1, j - 1] + zq[k + 1, j - 1]) - zp[k, j - 1]) - zq[k, j - 1]
            num = num * (zr[k, j] + zr[k - 1, j])
            den = zm[k, j - 1] + zm[k + 1, j - 1]
            za[k, j] = _py_divide(num, den)
            num = ((zp[k, j - 1] + zq[k, j - 1]) - zp[k, j]) - zq[k, j]
            num = num * (zr[k, j] + zr[k, j - 1])
            den = zm[k, j] + zm[k, j - 1]
            zb[k, j] = _py_divide(num, den)
    for k in range(1, 6):
        for j in range(1, n):
            centre_z = zz[k, j]
            acc = za[k, j] * (centre_z - zz[k, j + 1])
            acc = acc - za[k, j - 1] * (centre_z - zz[k, j - 1])
            acc = acc - zb[k, j] * (centre_z - zz[k - 1, j])
            acc = acc + zb[k + 1, j] * (centre_z - zz[k + 1, j])
            zu[k, j] = zu[k, j] + _K18_S * acc
            centre_r = zr[k, j]
            acc = za[k, j] * (centre_r - zr[k, j + 1])
            acc = acc - za[k, j - 1] * (centre_r - zr[k, j - 1])
            acc = acc - zb[k, j] * (centre_r - zr[k - 1, j])
            acc = acc + zb[k + 1, j] * (centre_r - zr[k + 1, j])
            zv[k, j] = zv[k, j] + _K18_S * acc
    for k in range(1, 6):
        for j in range(1, n):
            zr[k, j] = zr[k, j] + _K18_T * zu[k, j]
            zz[k, j] = zz[k, j] + _K18_T * zv[k, j]
    return za, zb, zu, zv, zr, zz


def _k18_nest(b: ProgramBuilder, tag: str, n: int, body) -> None:
    """Emit the shared k=1..5 / j=1..n-1 nest; A2 = k*(n+1) + j."""
    cols = n + 1
    b.ai(A(2), cols + 1, comment="A2 = [1][1]")
    b.ai(A(6), 5, comment="k counter")
    b.label(f"{tag}_rows")
    b.ai(A(0), n - 1, comment="j counter")
    b.label(f"{tag}_cols")
    body()
    b.aadd(A(2), A(2), 1)
    b.asub(A(0), A(0), 1)
    b.jan(f"{tag}_cols")
    b.aadd(A(2), A(2), 2, comment="skip column 0 of the next row")
    b.asub(A(6), A(6), 1)
    b.amove(A(0), A(6))
    b.jan(f"{tag}_rows")


def _build_18(n: int) -> KernelInstance:
    if n < 3:
        raise ValueError(f"kernel 18 needs n >= 3, got {n}")
    cols = n + 1
    layout = Layout()
    arrays = {
        name: layout.array(name, _K18_ROWS, cols)
        for name in ("za", "zb", "zm", "zp", "zq", "zr", "zu", "zv", "zz")
    }

    rng = kernel_rng(18, n)
    zm0 = rng.uniform(0.5, 1.5, (_K18_ROWS, cols))
    zp0 = rng.uniform(0.0, 1.0, (_K18_ROWS, cols))
    zq0 = rng.uniform(0.0, 1.0, (_K18_ROWS, cols))
    zr0 = rng.uniform(0.0, 1.0, (_K18_ROWS, cols))
    zz0 = rng.uniform(0.0, 1.0, (_K18_ROWS, cols))

    memory = layout.memory()
    for name, data in (("zm", zm0), ("zp", zp0), ("zq", zq0),
                       ("zr", zr0), ("zz", zz0)):
        arrays[name].write_to(memory, data)

    e_za, e_zb, e_zu, e_zv, e_zr, e_zz = _reference_18(zm0, zp0, zq0, zr0, zz0, n)

    base = {name: spec.base for name, spec in arrays.items()}
    up = cols  # one row in the flattened [7][n+1] layout

    b = ProgramBuilder("livermore-18")
    b.si(S(7), 2.0, comment="Newton constant")
    b.si(S(1), _K18_S)
    b.smove(T(1), S(1), comment="s")
    b.si(S(1), _K18_T)
    b.smove(T(0), S(1), comment="t")

    def phase1():
        # za[k][j]
        b.loads(S(1), A(2), base["zp"] + up - 1)
        b.loads(S(2), A(2), base["zq"] + up - 1)
        b.fadd(S(1), S(1), S(2))
        b.loads(S(2), A(2), base["zp"] - 1)
        b.fsub(S(1), S(1), S(2))
        b.loads(S(2), A(2), base["zq"] - 1)
        b.fsub(S(1), S(1), S(2))
        b.loads(S(2), A(2), base["zr"])
        b.loads(S(3), A(2), base["zr"] - up)
        b.fadd(S(2), S(2), S(3))
        b.fmul(S(1), S(1), S(2), comment="za numerator")
        b.loads(S(2), A(2), base["zm"] - 1)
        b.loads(S(3), A(2), base["zm"] + up - 1)
        b.fadd(S(2), S(2), S(3), comment="za denominator")
        _emit_divide(b, S(4), S(1), S(2), S(5), S(7))
        b.stores(S(4), A(2), base["za"])
        # zb[k][j]
        b.loads(S(1), A(2), base["zp"] - 1)
        b.loads(S(2), A(2), base["zq"] - 1)
        b.fadd(S(1), S(1), S(2))
        b.loads(S(2), A(2), base["zp"])
        b.fsub(S(1), S(1), S(2))
        b.loads(S(2), A(2), base["zq"])
        b.fsub(S(1), S(1), S(2))
        b.loads(S(2), A(2), base["zr"])
        b.loads(S(3), A(2), base["zr"] - 1)
        b.fadd(S(2), S(2), S(3))
        b.fmul(S(1), S(1), S(2))
        b.loads(S(2), A(2), base["zm"])
        b.loads(S(3), A(2), base["zm"] - 1)
        b.fadd(S(2), S(2), S(3))
        _emit_divide(b, S(4), S(1), S(2), S(5), S(7))
        b.stores(S(4), A(2), base["zb"])

    def _stencil(field: str, out: str) -> None:
        b.loads(S(1), A(2), base[field], comment=f"{field}[k][j]")
        b.loads(S(2), A(2), base[field] + 1)
        b.fsub(S(2), S(1), S(2))
        b.loads(S(3), A(2), base["za"])
        b.fmul(S(2), S(3), S(2), comment="accumulator")
        b.loads(S(3), A(2), base[field] - 1)
        b.fsub(S(3), S(1), S(3))
        b.loads(S(4), A(2), base["za"] - 1)
        b.fmul(S(3), S(4), S(3))
        b.fsub(S(2), S(2), S(3))
        b.loads(S(3), A(2), base[field] - up)
        b.fsub(S(3), S(1), S(3))
        b.loads(S(4), A(2), base["zb"])
        b.fmul(S(3), S(4), S(3))
        b.fsub(S(2), S(2), S(3))
        b.loads(S(3), A(2), base[field] + up)
        b.fsub(S(3), S(1), S(3))
        b.loads(S(4), A(2), base["zb"] + up)
        b.fmul(S(3), S(4), S(3))
        b.fadd(S(2), S(2), S(3))
        b.smove(S(3), T(1))
        b.fmul(S(2), S(3), S(2), comment="s * stencil")
        b.loads(S(3), A(2), base[out])
        b.fadd(S(3), S(3), S(2))
        b.stores(S(3), A(2), base[out])

    def phase2():
        _stencil("zz", "zu")
        _stencil("zr", "zv")

    def phase3():
        b.loads(S(1), A(2), base["zu"])
        b.smove(S(2), T(0))
        b.fmul(S(1), S(2), S(1))
        b.loads(S(3), A(2), base["zr"])
        b.fadd(S(3), S(3), S(1))
        b.stores(S(3), A(2), base["zr"])
        b.loads(S(1), A(2), base["zv"])
        b.smove(S(2), T(0))
        b.fmul(S(1), S(2), S(1))
        b.loads(S(3), A(2), base["zz"])
        b.fadd(S(3), S(3), S(1))
        b.stores(S(3), A(2), base["zz"])

    _k18_nest(b, "p1", n, phase1)
    _k18_nest(b, "p2", n, phase2)
    _k18_nest(b, "p3", n, phase3)

    return KernelInstance(
        number=18,
        name="2-D explicit hydrodynamics (extended)",
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={
            "za": e_za, "zb": e_zb, "zu": e_zu,
            "zv": e_zv, "zr": e_zr, "zz": e_zz,
        },
        checked_arrays=("za", "zb", "zu", "zv", "zr", "zz"),
    )


# ----------------------------------------------------------------------
# kernel 19: general linear recurrence equations (forward + backward)
# ----------------------------------------------------------------------


def _reference_19(sa, sb, n):
    b5 = np.zeros(n)
    stb5 = 0.5
    for k in range(n):
        b5[k] = sa[k] + stb5 * sb[k]
        stb5 = b5[k] - stb5
    for k in range(n - 1, -1, -1):
        b5[k] = sa[k] + stb5 * sb[k]
        stb5 = b5[k] - stb5
    return b5


def _build_19(n: int) -> KernelInstance:
    if n < 1:
        raise ValueError(f"kernel 19 needs n >= 1, got {n}")
    layout = Layout()
    sa = layout.array("sa", n)
    sb = layout.array("sb", n)
    b5 = layout.array("b5", n)

    rng = kernel_rng(19, n)
    sa0 = rng.uniform(0.1, 1.0, n)
    sb0 = rng.uniform(-0.5, 0.5, n)

    memory = layout.memory()
    sa.write_to(memory, sa0)
    sb.write_to(memory, sb0)

    b = ProgramBuilder("livermore-19")
    b.si(S(1), 0.5, comment="stb5")
    # forward pass
    b.ai(A(1), 0)
    b.ai(A(0), n)
    b.label("fwd")
    b.loads(S(2), A(1), sb.base)
    b.fmul(S(2), S(1), S(2), comment="stb5*sb[k]")
    b.loads(S(3), A(1), sa.base)
    b.fadd(S(3), S(3), S(2), comment="b5[k]")
    b.stores(S(3), A(1), b5.base)
    b.fsub(S(1), S(3), S(1), comment="stb5 = b5[k] - stb5")
    b.aadd(A(1), A(1), 1)
    b.asub(A(0), A(0), 1)
    b.jan("fwd")
    # backward pass
    b.ai(A(1), n - 1)
    b.ai(A(0), n)
    b.label("bwd")
    b.loads(S(2), A(1), sb.base)
    b.fmul(S(2), S(1), S(2))
    b.loads(S(3), A(1), sa.base)
    b.fadd(S(3), S(3), S(2))
    b.stores(S(3), A(1), b5.base)
    b.fsub(S(1), S(3), S(1))
    b.asub(A(1), A(1), 1)
    b.asub(A(0), A(0), 1)
    b.jan("bwd")

    return KernelInstance(
        number=19,
        name="general linear recurrence (extended)",
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"b5": _reference_19(sa0, sb0, n)},
        checked_arrays=("b5",),
    )


# ----------------------------------------------------------------------
# kernel 21: matrix * matrix product  px[i][j] += vy[i][k]*cx[k][j]
# ----------------------------------------------------------------------

_K21_INNER = 25  # the LFK fixes the shared dimension at 25


def _reference_21(px, vy, cx, n):
    out = px.copy()
    for i in range(n):
        for j in range(n):
            acc = out[i, j]
            for k in range(_K21_INNER):
                acc += vy[i, k] * cx[k, j]
            out[i, j] = acc
    return out


def _build_21(n: int) -> KernelInstance:
    if n < 1:
        raise ValueError(f"kernel 21 needs n >= 1, got {n}")
    layout = Layout()
    px = layout.array("px", n, n)
    vy = layout.array("vy", n, _K21_INNER)
    cx = layout.array("cx", _K21_INNER, n)

    rng = kernel_rng(21, n)
    px0 = rng.uniform(0.0, 0.1, (n, n))
    vy0 = rng.uniform(0.0, 0.2, (n, _K21_INNER))
    cx0 = rng.uniform(0.0, 0.2, (_K21_INNER, n))

    memory = layout.memory()
    px.write_to(memory, px0)
    vy.write_to(memory, vy0)
    cx.write_to(memory, cx0)

    b = ProgramBuilder("livermore-21")
    # A3 = px element address offset (i*n + j); A4 = i*25 (vy row);
    # the j loop rebuilds A5 = cx column walker.
    b.ai(A(3), 0, comment="px offset")
    b.ai(A(4), 0, comment="vy row base")
    b.ai(A(6), n, comment="outer (i) counter")
    b.label("rows")
    b.ai(A(7), n, comment="middle (j) counter")
    b.ai(A(5), 0, comment="cx column index = j")
    b.label("cols")
    b.loads(S(1), A(3), px.base, comment="accumulator = px[i][j]")
    b.amove(A(1), A(4), comment="vy walker")
    b.amove(A(2), A(5), comment="cx walker (steps by n)")
    b.ai(A(0), _K21_INNER)
    b.label("inner")
    b.loads(S(2), A(1), vy.base)
    b.loads(S(3), A(2), cx.base)
    b.fmul(S(2), S(2), S(3))
    b.fadd(S(1), S(1), S(2))
    b.aadd(A(1), A(1), 1)
    b.aadd(A(2), A(2), n)
    b.asub(A(0), A(0), 1)
    b.jan("inner")
    b.stores(S(1), A(3), px.base)
    b.aadd(A(3), A(3), 1)
    b.aadd(A(5), A(5), 1)
    b.asub(A(7), A(7), 1)
    b.amove(A(0), A(7))
    b.jan("cols")
    b.aadd(A(4), A(4), _K21_INNER)
    b.asub(A(6), A(6), 1)
    b.amove(A(0), A(6))
    b.jan("rows")

    return KernelInstance(
        number=21,
        name="matrix product (extended)",
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"px": _reference_21(px0, vy0, cx0, n)},
        checked_arrays=("px",),
    )


# ----------------------------------------------------------------------
# kernel 24: first minimum  m = argmin(x)
# ----------------------------------------------------------------------

#: Input quantum: data are integer multiples of 1/_K24_SCALE, so scaled
#: differences are integers and the FIX-based sign test is exact.
_K24_SCALE = 1024


def _reference_24(x, n):
    m = 0
    for k in range(1, n):
        if x[k] < x[m]:
            m = k
    return m


def _build_24(n: int) -> KernelInstance:
    if n < 2:
        raise ValueError(f"kernel 24 needs n >= 2, got {n}")
    layout = Layout()
    x = layout.array("x", n)
    m_slot = layout.scalar_slot("m")

    rng = kernel_rng(24, n)
    # Quantised data: distinct comparisons scale to integers >= 1, so the
    # sign test through FIX is exact (see _K24_SCALE).
    x0 = rng.integers(0, 4 * _K24_SCALE, n).astype(np.float64) / _K24_SCALE

    memory = layout.memory()
    x.write_to(memory, x0)

    b = ProgramBuilder("livermore-24")
    b.si(S(3), float(_K24_SCALE), comment="comparison scale")
    b.ai(A(2), 0, comment="m (argmin so far)")
    b.ai(A(1), 0)
    b.loads(S(1), A(1), x.base, comment="current minimum x[m]")
    b.ai(A(1), 1, comment="k")
    b.ai(A(0), n - 1)
    b.label("loop")
    b.loads(S(2), A(1), x.base)
    b.fsub(S(4), S(2), S(1), comment="x[k] - x[m]")
    b.fmul(S(4), S(4), S(3), comment="scale so FIX keeps the sign")
    b.fix(A(0), S(4))
    b.jam("newmin", comment="x[k] < x[m]")
    b.jmp("next")
    b.label("newmin")
    b.amove(A(2), A(1), comment="m = k")
    b.smove(S(1), S(2), comment="new minimum value")
    b.label("next")
    b.aadd(A(1), A(1), 1)
    # Recompute the counter: A0 was consumed by the comparison.
    b.ai(A(7), n)
    b.asub(A(0), A(7), A(1))
    b.jan("loop")
    b.storea(A(2), A(1), m_slot.base - n, comment="store argmin")

    expected_m = np.array([float(_reference_24(x0, n))])

    return KernelInstance(
        number=24,
        name="first minimum (extended)",
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={"m": expected_m},
        checked_arrays=("m",),
    )


_BUILDERS = {18: _build_18, 19: _build_19, 21: _build_21, 24: _build_24}
