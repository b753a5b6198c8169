#!/usr/bin/env python
"""Where do the cycles go?  Stall attribution and pipeline timelines.

For a scalar recurrence (loop 5) and a parallel loop (loop 12), show the
CRAY-like machine's stall breakdown (which hazards burn cycles), a
pipeline diagram of two loop iterations, and the dataflow critical path
-- the diagnosis behind the paper's Table 1 -> Table 7 progression.

Run:  python examples/stall_analysis.py
"""

from repro import M11BR5, build_kernel
from repro.analysis import (
    critical_path,
    record_schedule,
    render_timeline,
    stall_breakdown,
)


def main() -> None:
    for number in (5, 12):
        kernel = build_kernel(number)
        trace = kernel.trace()
        print(f"### Livermore loop {number}: {kernel.name} "
              f"({kernel.loop_class.value})\n")

        breakdown = stall_breakdown(trace, M11BR5)
        print(breakdown.render())
        print()

        schedule = record_schedule(trace, M11BR5)
        body = len(kernel.program)  # roughly one iteration of instructions
        print(render_timeline(trace, schedule, first=body, count=min(body, 18)))
        print()

        path = critical_path(trace, M11BR5)
        print(path.render(trace, limit=8))
        print()


if __name__ == "__main__":
    main()
