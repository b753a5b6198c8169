"""Livermore Loop 8 -- ADI integration (vectorizable).

C form (single ``kx = 1`` plane, as in the original kernel)::

    nl1 = 0; nl2 = 1;
    for (ky = 1; ky < n; ky++) {
        du1[ky] = u1[kx][ky+1][nl1] - u1[kx][ky-1][nl1];
        du2[ky] = u2[kx][ky+1][nl1] - u2[kx][ky-1][nl1];
        du3[ky] = u3[kx][ky+1][nl1] - u3[kx][ky-1][nl1];
        u1[kx][ky][nl2] = u1[kx][ky][nl1] + a11*du1[ky] + a12*du2[ky] + a13*du3[ky]
            + sig*(u1[kx+1][ky][nl1] - 2.0*u1[kx][ky][nl1] + u1[kx-1][ky][nl1]);
        ... (same for u2 with a21..a23, u3 with a31..a33)
    }

The biggest loop body in the suite (~70 instructions per iteration).  Its
eleven floating constants do not fit in the 8 S registers, so they are
parked in T (backup) registers and moved to S on demand -- exactly the
CRAY register-pressure idiom.

Floating-point association order: this encoding sums the coefficient
products first and adds the centre value afterwards, and computes the
Laplacian as ``(u[kx+1]+u[kx-1]) - 2u``; the Python reference mirrors that
order so verification is exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..asm import ProgramBuilder
from ..isa import A, S, T
from .common import KernelInstance, Layout, kernel_rng
from .sizes import default_size

NUMBER = 8
NAME = "ADI integration"

_COEFFS = {
    "a11": 0.50, "a12": 0.33, "a13": 0.25,
    "a21": 0.20, "a22": 0.17, "a23": 0.14,
    "a31": 0.12, "a32": 0.11, "a33": 0.10,
}
_SIG = 0.41


def _reference(u1, u2, u3, n):
    """Mirror of the assembly's evaluation order (see module docstring)."""
    c = _COEFFS
    u1, u2, u3 = u1.copy(), u2.copy(), u3.copy()
    du1 = np.zeros(n + 1)
    du2 = np.zeros(n + 1)
    du3 = np.zeros(n + 1)
    kx = 1
    for ky in range(1, n):
        du1[ky] = u1[kx, ky + 1, 0] - u1[kx, ky - 1, 0]
        du2[ky] = u2[kx, ky + 1, 0] - u2[kx, ky - 1, 0]
        du3[ky] = u3[kx, ky + 1, 0] - u3[kx, ky - 1, 0]
        for u, (ca, cb, cc) in (
            (u1, (c["a11"], c["a12"], c["a13"])),
            (u2, (c["a21"], c["a22"], c["a23"])),
            (u3, (c["a31"], c["a32"], c["a33"])),
        ):
            term = (ca * du1[ky] + cb * du2[ky]) + cc * du3[ky]
            base = u[kx, ky, 0] + term
            lap = (u[kx + 1, ky, 0] + u[kx - 1, ky, 0]) - 2.0 * u[kx, ky, 0]
            u[kx, ky, 1] = base + _SIG * lap
    return u1, u2, u3, du1, du2, du3


def build(n: Optional[int] = None) -> KernelInstance:
    n = default_size(NUMBER) if n is None else n
    if n < 2:
        raise ValueError(f"loop 8 needs n >= 2, got {n}")

    layout = Layout()
    u1 = layout.array("u1", 3, n + 1, 2)
    u2 = layout.array("u2", 3, n + 1, 2)
    u3 = layout.array("u3", 3, n + 1, 2)
    du1 = layout.array("du1", n + 1)
    du2 = layout.array("du2", n + 1)
    du3 = layout.array("du3", n + 1)

    rng = kernel_rng(NUMBER, n)
    u1_0 = rng.uniform(0.1, 1.0, (3, n + 1, 2))
    u2_0 = rng.uniform(0.1, 1.0, (3, n + 1, 2))
    u3_0 = rng.uniform(0.1, 1.0, (3, n + 1, 2))

    memory = layout.memory()
    u1.write_to(memory, u1_0)
    u2.write_to(memory, u2_0)
    u3.write_to(memory, u3_0)

    e_u1, e_u2, e_u3, e_du1, e_du2, e_du3 = _reference(u1_0, u2_0, u3_0, n)

    np2 = (n + 1) * 2  # words per kx plane
    # Base displacements for the kx = 1 plane, nl1 = 0, indexed by A3 = 2*ky.
    u1c = u1.base + np2
    u2c = u2.base + np2
    u3c = u3.base + np2

    coeff_regs = {name: T(i) for i, name in enumerate(_COEFFS)}
    sig_reg = T(9)
    two_reg = T(10)

    b = ProgramBuilder("livermore-08")
    for name, treg in coeff_regs.items():
        b.si(S(1), _COEFFS[name], comment=name)
        b.smove(treg, S(1))
    b.si(S(1), _SIG, comment="sig")
    b.smove(sig_reg, S(1))
    b.si(S(1), 2.0)
    b.smove(two_reg, S(1))
    b.ai(A(2), 1, comment="ky")
    b.ai(A(3), 2, comment="2*ky")
    b.ai(A(0), n - 1)
    b.label("loop")
    # du_i[ky] = u_i[kx][ky+1][0] - u_i[kx][ky-1][0]; keep du_i in S_i.
    for s, uc, du in ((S(1), u1c, du1), (S(2), u2c, du2), (S(3), u3c, du3)):
        b.loads(s, A(3), uc + 2)
        b.loads(S(4), A(3), uc - 2)
        b.fsub(s, s, S(4))
        b.stores(s, A(2), du.base)
    # u_i[kx][ky][1] update.
    for uc, (ca, cb, cc) in (
        (u1c, ("a11", "a12", "a13")),
        (u2c, ("a21", "a22", "a23")),
        (u3c, ("a31", "a32", "a33")),
    ):
        b.smove(S(4), coeff_regs[ca])
        b.fmul(S(4), S(4), S(1))
        b.smove(S(5), coeff_regs[cb])
        b.fmul(S(5), S(5), S(2))
        b.fadd(S(4), S(4), S(5))
        b.smove(S(5), coeff_regs[cc])
        b.fmul(S(5), S(5), S(3))
        b.fadd(S(4), S(4), S(5), comment="coefficient combination")
        b.loads(S(5), A(3), uc, comment="centre value")
        b.fadd(S(4), S(5), S(4))
        b.loads(S(6), A(3), uc + np2, comment="kx+1 neighbour")
        b.loads(S(7), A(3), uc - np2, comment="kx-1 neighbour")
        b.fadd(S(6), S(6), S(7))
        b.smove(S(0), two_reg)
        b.fmul(S(0), S(0), S(5))
        b.fsub(S(6), S(6), S(0), comment="Laplacian in kx")
        b.smove(S(0), sig_reg)
        b.fmul(S(6), S(0), S(6))
        b.fadd(S(4), S(4), S(6))
        b.stores(S(4), A(3), uc + 1, comment="nl2 = 1 plane")
    b.aadd(A(2), A(2), 1)
    b.aadd(A(3), A(3), 2)
    b.asub(A(0), A(0), 1)
    b.jan("loop")

    return KernelInstance(
        number=NUMBER,
        name=NAME,
        n=n,
        program=b.build(),
        initial_memory=memory,
        arrays=layout.arrays,
        expected={
            "u1": e_u1, "u2": e_u2, "u3": e_u3,
            "du1": e_du1, "du2": e_du2, "du3": e_du3,
        },
        checked_arrays=("u1", "u2", "u3", "du1", "du2", "du3"),
        trip_counts=(n - 1,),
    )
