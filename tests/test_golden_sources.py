"""Golden regression tests for the trace-source registry.

Two guards:

* **Family rates** -- per family x oracle machine, the harmonic mean of
  the issue rates over a fixed seed set is pinned bit-exactly in
  ``tests/data/golden_sources.json``.  The generators are seeded and
  the engine deterministic, so any drift in a generator, the compiled
  fast path or a machine model names the exact cell that moved.
  Regenerate after an intentional change with
  ``PYTHONPATH=src python tests/data/regen_golden_sources.py``.
* **Kernel equivalence** -- ``trace_source("kernel:...")`` must mint
  traces *identical* to the legacy :func:`build_kernel` /
  :func:`build_vectorized` constructors for every loop and encoding
  option.  The harness resolves paper-table traces through the
  registry, so this is what keeps Tables 1-8 bit-exact
  (``tests/test_golden_tables.py`` pins the table cells themselves).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.asm.errors import ExecutionError
from repro.core import build_simulator, config_by_name
from repro.kernels import ALL_LOOPS, build_kernel
from repro.kernels.vectorized import VECTORIZED_LOOPS, build_vectorized
from repro.trace.sources import UnknownTraceSourceError, trace_source

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_sources.json").read_text())

# The regen script owns the family list, seed set and mean; importing it
# keeps this module and the pinned JSON generated from one definition.
_spec = importlib.util.spec_from_file_location(
    "regen_golden_sources", DATA / "regen_golden_sources.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


pytestmark = pytest.mark.sources


def test_golden_file_covers_every_family():
    assert set(GOLDEN["families"]) == set(regen.FAMILIES)
    assert GOLDEN["config"] == regen.CONFIG
    assert tuple(GOLDEN["seeds"]) == regen.SEEDS


@pytest.mark.parametrize("family", regen.FAMILIES)
def test_family_rates_match_golden(family):
    config = config_by_name(regen.CONFIG)
    traces = [
        trace_source(f"{family}:seed={seed}") for seed in regen.SEEDS
    ]
    expected = GOLDEN["families"][family]
    assert set(expected) == set(regen.machines_for(family)), family
    mismatches = []
    for spec, value in expected.items():
        simulator = build_simulator(spec)
        got = regen.harmonic_mean(
            [simulator.simulate(trace, config).issue_rate
             for trace in traces]
        )
        if got != value:
            mismatches.append(
                f"{family}[{spec}]: got {got!r}, pinned {value!r}"
            )
    assert not mismatches, "\n".join(mismatches)


# ----------------------------------------------------------------------
# kernel:* == build_kernel: the paper-table bit-exactness guard
# ----------------------------------------------------------------------

def _same_trace(from_source, from_builder):
    assert from_source.name == from_builder.name
    assert list(from_source.entries) == list(from_builder.entries)


@pytest.mark.parametrize("loop", ALL_LOOPS)
def test_kernel_source_identical_to_build_kernel(loop):
    _same_trace(
        trace_source(f"kernel:{loop}"), build_kernel(loop).trace()
    )


@pytest.mark.parametrize("loop", ALL_LOOPS)
def test_kernel_source_options_identical(loop):
    n = 64  # power of two: valid for every loop, including loop 2
    _same_trace(
        trace_source(f"kernel:{loop}:n={n}"),
        build_kernel(loop, n=n).trace(),
    )
    # Some loops have trip counts at this size that 2 does not divide,
    # so the unrolled program runs past its arrays; the registry must
    # agree with the legacy builder either way -- the same trace, or a
    # spec error where the builder's program faults.
    try:
        legacy_unrolled = build_kernel(loop, n=n, unroll=2).trace()
    except ExecutionError:
        with pytest.raises(UnknownTraceSourceError, match="does not divide"):
            trace_source(f"kernel:{loop}:n={n}:unroll=2")
    else:
        _same_trace(
            trace_source(f"kernel:{loop}:n={n}:unroll=2"),
            legacy_unrolled,
        )
    _same_trace(
        trace_source(f"kernel:{loop}:n={n}:schedule=off"),
        build_kernel(loop, n=n, schedule=False).trace(),
    )


@pytest.mark.parametrize("loop", VECTORIZED_LOOPS)
def test_kernel_source_vector_identical(loop):
    _same_trace(
        trace_source(f"kernel:{loop}:n=64:vector=on"),
        build_vectorized(loop, 64).trace(),
    )


def test_kernel_source_rates_unchanged_by_registry():
    """Replaying a registry-minted kernel trace gives the same issue
    rate as the legacy path on a representative machine sample."""
    config = config_by_name("M11BR5")
    for loop in (1, 5, 12):
        legacy = build_kernel(loop).trace()
        minted = trace_source(f"kernel:{loop}")
        for spec in ("cray", "tomasulo", "ruu:2:50"):
            simulator = build_simulator(spec)
            assert (
                simulator.simulate(minted, config).issue_rate
                == simulator.simulate(legacy, config).issue_rate
            ), (loop, spec)
