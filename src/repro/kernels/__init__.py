"""The 14 Lawrence Livermore Loops as CRAY-like assembly kernels.

Each loop module contains the assembly encoding (written in the idiom of a
late-1980s scalar compiler), a Python/NumPy reference implementation, and
deterministic input data.  :func:`build_kernel` returns a prepared
:class:`~repro.kernels.common.KernelInstance`; ``instance.trace()`` runs
the kernel, verifies it against the reference, and returns the dynamic
trace (memoized process-wide under the instance's trace-source spec).
"""

import dataclasses
from types import ModuleType
from typing import Dict, Iterable, List, Optional

from ..asm.addressing import expand_addressing
from ..asm.scheduler import schedule_program
from ..asm.unroller import unroll_innermost

from . import (
    loop01,
    loop02,
    loop03,
    loop04,
    loop05,
    loop06,
    loop07,
    loop08,
    loop09,
    loop10,
    loop11,
    loop12,
    loop13,
    loop14,
)
from .classification import (
    ALL_LOOPS,
    SCALAR_LOOPS,
    VECTORIZABLE_LOOPS,
    LoopClass,
    classify,
    loops_in_class,
)
from .common import KernelInstance, KernelVerificationError, Layout, kernel_rng
from .sizes import DEFAULT_SIZES, SMALL_SIZES, default_size

_MODULES: Dict[int, ModuleType] = {
    module.NUMBER: module
    for module in (
        loop01, loop02, loop03, loop04, loop05, loop06, loop07,
        loop08, loop09, loop10, loop11, loop12, loop13, loop14,
    )
}

#: Loop number -> kernel name.
KERNEL_NAMES: Dict[int, str] = {
    number: module.NAME for number, module in _MODULES.items()
}


def build_kernel(
    number: int,
    n: Optional[int] = None,
    *,
    schedule: bool = True,
    unroll: int = 1,
    explicit_addressing: bool = False,
) -> KernelInstance:
    """Build Livermore loop *number* at problem size *n*.

    By default the program goes through the list scheduler
    (:mod:`repro.asm.scheduler`), matching the paper's CFT-compiled
    traces; ``schedule=False`` keeps the naive source-order encoding
    (used by the code-quality ablation benchmark).

    ``unroll=k`` unrolls every structurally clean counted loop by *k*
    before scheduling (the paper's Section 4 remark about unrolling and
    critical paths).  The caller must pick a size whose trip counts are
    multiples of *k* -- verification catches violations; the instance's
    ``trip_counts`` lists them, and a ``kernel:`` trace spec is checked
    against them before anything runs.

    ``explicit_addressing=True`` expands folded displacements into
    explicit A-register arithmetic (:mod:`repro.asm.addressing`) -- the
    CFT-style code-bulk model used by the calibration study.

    The instance records its canonical trace-source spec
    (``kernel:5:n=200[:unroll=k][:schedule=off][:addressing=explicit]``)
    as :attr:`KernelInstance.source`; ``instance.trace()`` memoizes
    under it.
    """
    try:
        module = _MODULES[number]
    except KeyError:
        raise ValueError(f"no Livermore loop numbered {number}") from None
    instance = module.build(n)
    source = f"kernel:{number}:n={instance.n}"
    if unroll != 1:
        instance = dataclasses.replace(
            instance,
            name=f"{instance.name} (unroll x{unroll})",
            program=unroll_innermost(instance.program, unroll),
        )
        source += f":unroll={unroll}"
    if explicit_addressing:
        instance = dataclasses.replace(
            instance,
            program=expand_addressing(instance.program),
        )
    if schedule:
        instance = dataclasses.replace(
            instance,
            program=schedule_program(instance.program),
            scheduled=True,
        )
    else:
        source += ":schedule=off"
    if explicit_addressing:
        source += ":addressing=explicit"
    return dataclasses.replace(instance, source=source)


def build_all(
    numbers: Iterable[int] = ALL_LOOPS,
    sizes: Optional[Dict[int, int]] = None,
    *,
    schedule: bool = True,
) -> List[KernelInstance]:
    """Build several kernels; *sizes* optionally overrides per-loop sizes."""
    instances = []
    for number in numbers:
        n = sizes.get(number) if sizes else None
        instances.append(build_kernel(number, n, schedule=schedule))
    return instances


__all__ = [
    "ALL_LOOPS",
    "DEFAULT_SIZES",
    "KERNEL_NAMES",
    "KernelInstance",
    "KernelVerificationError",
    "Layout",
    "LoopClass",
    "SCALAR_LOOPS",
    "SMALL_SIZES",
    "VECTORIZABLE_LOOPS",
    "build_all",
    "build_kernel",
    "classify",
    "default_size",
    "kernel_rng",
    "loops_in_class",
]
