"""repro -- a reproduction of Pleszkun & Sohi (1988),
"The Performance Potential of Multiple Functional Unit Processors".

The package is organised bottom-up:

* :mod:`repro.isa`     -- the CRAY-like base instruction set and unit timings;
* :mod:`repro.asm`     -- assembly DSL, assembler, memory and functional
  interpreter (the trace-capture substrate);
* :mod:`repro.kernels` -- the 14 Lawrence Livermore Loops as assembly
  kernels with NumPy reference verification;
* :mod:`repro.trace`   -- dynamic traces, statistics and caching;
* :mod:`repro.core`    -- the timing simulators for every issue method the
  paper studies (Simple, SerialMemory, NonSegmented, CRAY-like, in-order
  and out-of-order multi-issue, RUU dependency resolution);
* :mod:`repro.limits`  -- pseudo-dataflow / resource / serial limits;
* :mod:`repro.harness` -- cell plans for Tables 1-10, the Section 3.3
  quote and the per-loop appendix, the parallel engine, paper data and
  comparison machinery;
* :mod:`repro.obs`     -- observability: process-safe metrics, run/span
  tracing, simulator events, durable run manifests;
* :mod:`repro.api`     -- the one public facade: ``run_table``,
  ``simulate``, ``limits``, ``list_machines`` and friends, with process
  fan-out and a persistent result store underneath.

Quickstart::

    import repro

    run = repro.run_table("table1", workers=4)   # parallel + cached
    print(run.render_report())

    result = repro.simulate("kernel:5", "ruu:2:50")  # loop 5, one machine
    print(result.issue_rate)

Lower-level building blocks stay importable::

    from repro import build_kernel, cray_like_machine, M11BR5

    kernel = build_kernel(5)          # Livermore loop 5 (tri-diagonal)
    trace = kernel.trace()            # verified dynamic trace
    result = cray_like_machine().simulate(trace, M11BR5)
    print(result.issue_rate)
"""

# ``repro.api`` is the facade; its table/kernel entry points are also
# re-exported at top level (``api.limits`` stays namespaced to avoid
# shadowing the :mod:`repro.limits` subpackage).
from . import api, obs
from .api import (
    TableRun,
    list_machines,
    list_tables,
    run_table,
    simulate,
)
from .core import (
    BusKind,
    UnknownSpecError,
    InOrderMultiIssueMachine,
    M5BR2,
    M5BR5,
    M11BR2,
    M11BR5,
    MachineConfig,
    OutOfOrderMultiIssueMachine,
    RUUMachine,
    SimpleMachine,
    SimulationResult,
    Simulator,
    STANDARD_CONFIGS,
    build_simulator,
    config_by_name,
    cray_like_machine,
    non_segmented_machine,
    serial_memory_machine,
)
from .harness import harmonic_mean
from .kernels import (
    ALL_LOOPS,
    SCALAR_LOOPS,
    VECTORIZABLE_LOOPS,
    KernelInstance,
    LoopClass,
    build_kernel,
    classify,
)
from .limits import (
    compute_limits,
    pseudo_dataflow_schedule,
    resource_limit,
)
from .trace import Trace, TraceEntry, generate_trace, trace_stats

__version__ = "1.0.0"

__all__ = [
    "ALL_LOOPS",
    "BusKind",
    "InOrderMultiIssueMachine",
    "KernelInstance",
    "LoopClass",
    "M11BR2",
    "M11BR5",
    "M5BR2",
    "M5BR5",
    "MachineConfig",
    "OutOfOrderMultiIssueMachine",
    "RUUMachine",
    "SCALAR_LOOPS",
    "STANDARD_CONFIGS",
    "SimpleMachine",
    "SimulationResult",
    "Simulator",
    "TableRun",
    "Trace",
    "TraceEntry",
    "UnknownSpecError",
    "VECTORIZABLE_LOOPS",
    "api",
    "build_kernel",
    "obs",
    "build_simulator",
    "list_machines",
    "list_tables",
    "run_table",
    "simulate",
    "classify",
    "compute_limits",
    "config_by_name",
    "cray_like_machine",
    "generate_trace",
    "harmonic_mean",
    "non_segmented_machine",
    "pseudo_dataflow_schedule",
    "resource_limit",
    "serial_memory_machine",
    "trace_stats",
    "__version__",
]
