#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: what people actually run.

Four workloads, each a closed loop with one caller at ``workers=1``:
cold and warm ``tables all``, seeded ``verify`` campaigns and
``explore`` passes (see README.md in this directory)::

    python3 benchmarks/e2e/run.py --workload tables-cold --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --workload explore --seed 3 --trace 1 --out runs.jsonl
    python3 benchmarks/e2e/run.py --regen-expected

Every run starts child processes (``workloads.py``) one at a time: a few
that only set up, for the ``setup_s`` median, then one that sets up and
measures timed passes for ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer metrics and writes a Chrome trace plus the layer summary
under ``benchmarks/e2e/.work/traces/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

WORKLOADS = ("tables-cold", "tables-warm", "verify", "explore")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Wall-clock cap on one run, below the 180 s a run may take.
TIME_CAP_S = 170

#: Child environment: one thread, fixed hashing, the library defaults,
#: and git confined to this checkout (manifests record its HEAD).
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "REPRO_FASTPATH": "1",
    "REPRO_TELEMETRY": "1",
    "GIT_DIR": str(ROOT / ".git"),
}


class BenchError(RuntimeError):
    pass


def spawn(job: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
    """Run one child to completion; its last stdout line is its reply."""
    timeout = None
    if deadline is not None:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time cap reached")
    job = dict(job, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(job)],
        cwd=ROOT,
        env=dict(os.environ, **CHILD_ENV),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{job['role']} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """The result object of one run (the benchmark's last output line)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_CAP_S
    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    fill = WORK / "tables-fill"
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "role": "run",
        "fill": str(fill),
        "trace_prefix": str(WORK / "traces" / f"{args.workload}-s{args.seed}"),
    }
    problems: List[str] = []
    setups: List[float] = []
    try:
        if args.workload == "tables-warm" and not fill.is_dir():
            # Built once per checkout, like a build artefact; every run
            # hard-links it into a fresh cache during set-up.
            reply = spawn(dict(job, role="fill", work=str(run_dir / "fill")), deadline)
            if reply["problems"]:
                raise BenchError("cache fill failed: " + "; ".join(reply["problems"]))
        if not args.trace:
            for sample in range(SETUP_SAMPLES - 1):
                reply = spawn(
                    dict(job, role="setup", work=str(run_dir / f"setup-{sample}")),
                    deadline,
                )
                setups.append(reply["setup_s"])
                problems += reply["problems"]
        reply = spawn(dict(job, work=str(run_dir / "run")), deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems += reply["problems"] + reply.get("nesting_errors", [])
    setups.append(reply["setup_s"])
    if args.trace:
        values = reply["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(reply["scaled_walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": reply["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(reply['walls'])} passes, "
        f"{reply['attempted']} operations, {reply['failed']} failed; "
        f"host wall median {statistics.median(reply['walls']):.4g} s, "
        f"calibration {reply['calibration_s'] * 1000:.3g} ms"
    )
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    return {
        "correct": not problems and reply["failed"] == 0,
        "attempted": reply["attempted"],
        "failed": reply["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, help="also append the run as one JSON line here"
    )
    parser.add_argument(
        "--regen-expected", action="store_true",
        help="recompute expected.json from the current code",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.regen_expected:
        reply = spawn({"role": "regen", "work": str(WORK / "regen")}, None)
        shutil.rmtree(WORK / "regen", ignore_errors=True)
        print(f"wrote {reply['written']}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result = measure(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, **result}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
