"""Shared infrastructure for benchmark kernels.

Each kernel module (``loop01`` ... ``loop14``) exposes a ``build(n)``
function returning a :class:`KernelInstance`: the assembled program, the
initial memory image, the memory layout, and the *expected* final contents
of every output array (computed by a straight Python/NumPy translation of
the original Fortran kernel).  ``KernelInstance.verify()`` actually runs
the assembly on the interpreter and checks it against the reference --
the reproduction's guarantee that the traces we time are traces of the
real computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..asm import ArraySpec, Memory, Program
from ..trace import GLOBAL_TRACE_CACHE, Trace, generate_trace_with_result
from .classification import LoopClass, classify

#: Relative tolerance for float array verification.  The assembly evaluates
#: the same expression trees in the same order as the reference, so the
#: agreement is normally exact; the tolerance absorbs nothing but genuine
#: divergence.
VERIFY_RTOL = 1e-12


class KernelVerificationError(AssertionError):
    """The assembly kernel's results disagree with the NumPy reference."""


class Layout:
    """A bump allocator assigning base addresses to named arrays."""

    def __init__(self, origin: int = 16) -> None:
        if origin < 0:
            raise ValueError("layout origin must be non-negative")
        self._next = origin
        self.arrays: Dict[str, ArraySpec] = {}

    def array(self, name: str, *shape: int) -> ArraySpec:
        """Allocate a named row-major array and return its spec."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already allocated")
        spec = ArraySpec(name=name, base=self._next, shape=tuple(shape))
        self._next += spec.size
        self.arrays[name] = spec
        return spec

    def scalar_slot(self, name: str) -> ArraySpec:
        """Allocate a single-word slot (for scalar results like a dot product)."""
        return self.array(name, 1)

    def memory(self, pad: int = 16) -> Memory:
        """A zeroed memory image large enough for everything allocated."""
        return Memory(self._next + pad)

    def __getitem__(self, name: str) -> ArraySpec:
        return self.arrays[name]


def kernel_rng(number: int, n: int) -> np.random.Generator:
    """Deterministic RNG for kernel data (same data for same (kernel, n))."""
    return np.random.default_rng(100_000 + number * 1_000 + n)


@dataclass(frozen=True)
class KernelInstance:
    """A fully prepared benchmark kernel at a specific problem size.

    Attributes:
        number: Livermore loop number (1-14).
        name: short kernel name (e.g. ``"hydro fragment"``).
        n: problem size.
        program: assembled CRAY-like program.
        initial_memory: memory image with input data (never mutated; runs
            operate on copies).
        arrays: layout of every named array.
        expected: expected final contents of each checked array, computed
            by the Python/NumPy reference before any assembly runs.
        checked_arrays: names of the arrays compared during verification.
        scheduled: the program went through the list scheduler.
        source: the canonical trace-source spec that rebuilds exactly
            this instance (``kernel:5:n=200``, ``kernel:1:n=64:vector=on``);
            :func:`~repro.kernels.build_kernel` and
            :func:`~repro.kernels.vectorized.build_vectorized` record it.
            None for an instance built any other way.
        trip_counts: the trip counts the builder derives from *n* for
            the program's counted loops (the ones
            :func:`~repro.asm.unroller.unroll_innermost` unrolls), one
            per entry into such a loop; an unroll factor is sound only
            if it divides every one.  Empty for the builders that take
            no unroll factor (vectorised and extended kernels).
    """

    number: int
    name: str
    n: int
    program: Program
    initial_memory: Memory
    arrays: Mapping[str, ArraySpec]
    expected: Mapping[str, np.ndarray]
    checked_arrays: Tuple[str, ...]
    scheduled: bool = False
    source: Optional[str] = None
    trip_counts: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        missing = [a for a in self.checked_arrays if a not in self.arrays]
        if missing:
            raise ValueError(f"checked arrays not in layout: {missing}")
        missing = [a for a in self.checked_arrays if a not in self.expected]
        if missing:
            raise ValueError(f"checked arrays without expectations: {missing}")

    @property
    def loop_class(self) -> LoopClass:
        return classify(self.number)

    @property
    def trace_name(self) -> str:
        return f"livermore-{self.number:02d}"

    def run(self) -> Tuple[Trace, Memory]:
        """Execute the kernel on a fresh memory copy; return (trace, memory)."""
        memory = self.initial_memory.copy()
        trace, result = generate_trace_with_result(
            self.program, memory, name=self.trace_name
        )
        return trace, result.memory

    def verify(self) -> Trace:
        """Run the kernel and check every output array against the reference.

        Returns the captured trace (so verification doubles as capture).

        Raises:
            KernelVerificationError: on any mismatch.
        """
        trace, memory = self.run()
        for array_name in self.checked_arrays:
            spec = self.arrays[array_name]
            actual = spec.read_from(memory)
            expected = np.asarray(self.expected[array_name], dtype=np.float64)
            if expected.shape != spec.shape:
                raise KernelVerificationError(
                    f"loop {self.number}: reference for {array_name!r} has "
                    f"shape {expected.shape}, layout says {spec.shape}"
                )
            if not np.allclose(actual, expected, rtol=VERIFY_RTOL, atol=1e-300):
                worst = np.unravel_index(
                    np.argmax(np.abs(actual - expected)), expected.shape
                )
                raise KernelVerificationError(
                    f"loop {self.number} ({self.name}): array {array_name!r} "
                    f"mismatch, worst at {worst}: "
                    f"got {actual[worst]!r}, want {expected[worst]!r}"
                )
        return trace

    def trace(self) -> Trace:
        """The kernel's dynamic trace, verified once per process.

        Memoized in :data:`~repro.trace.GLOBAL_TRACE_CACHE` under
        :attr:`source`, the key the experiment engine resolves the same
        source under, so a table and a single-kernel call replay one
        trace object.  An instance without a source spec is verified on
        every call.
        """
        if self.source is None:
            return self.verify()
        return GLOBAL_TRACE_CACHE.get_or_build(self.source, self.verify)
