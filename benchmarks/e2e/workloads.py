"""The benchmark's workloads, and the child process that measures one.

``run.py`` starts this file once per set-up sample and once per measured
run, with one JSON job argument.  Every workload is a closed loop with a
single caller: the next pass starts only after the previous one returns.
Only calls into ``repro.api`` are timed; output checks, cache resets and
``gc.collect()`` run between passes, outside the timed region.

The child prints one JSON object as the last line of its standard
output; ``run.py`` turns it into the benchmark's result line.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro.api as api  # noqa: E402  (imported here: set-up time counts it)
from repro.core import build_simulator, config_by_name, fastpath  # noqa: E402
from repro.harness.engine import clear_process_memo  # noqa: E402
from repro.trace import GLOBAL_TRACE_CACHE  # noqa: E402
from repro.trace.diskcache import CACHE_DIR_ENV  # noqa: E402
from repro.trace.sources import trace_source  # noqa: E402
from repro.verify.oracle import DEFAULT_ORACLE_MACHINES  # noqa: E402

import layers  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"

#: The explore workload's design space (130,816 RUU candidates).
EXPLORE_SPACE = "family=ruu;width=1..32;window=2..512;bus=nbus,1bus;fu=1..4"
#: Explore pass keys ``K`` whose frontier ``expected.json`` pins.
EXPLORE_PINNED = range(40)
#: Frontier candidates per explore pass re-simulated on the reference loop.
EXPLORE_REFERENCE_CHECKS = 2

VERIFY_WARMUP_SEEDS = 20
VERIFY_SEEDS = 50
VERIFY_TRACE_LENGTH = 48
#: Seed block per benchmark seed: warm-up seeds, then one block of
#: ``VERIFY_SEEDS`` per timed campaign, never overlapping another
#: benchmark seed's block.
VERIFY_SEED_STRIDE = 10_000


def load_expected() -> Dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text())


def directory_bytes(path: Path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def table_cells(runs: Sequence[api.TableRun]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{table: {row: {column: value}}}`` -- the pinned output shape."""
    return {
        run.table.table_id: {row: dict(values) for row, values in run.table.rows}
        for run in runs
    }


def cell_mismatches(measured: Dict, expected: Dict) -> Tuple[int, List[str]]:
    """``(cells compared, mismatch messages)``; values compare bit-exactly."""
    cells = 0
    errors: List[str] = []
    for table, rows in expected.items():
        got_rows = measured.get(table, {})
        for row, columns in rows.items():
            for column, value in columns.items():
                cells += 1
                got = got_rows.get(row, {}).get(column)
                if got != value:
                    errors.append(
                        f"{table}[{row}][{column}]: got {got!r}, "
                        f"expected {value!r}"
                    )
        for row, columns in got_rows.items():
            for column in columns:
                if column not in rows.get(row, {}):
                    cells += 1
                    errors.append(f"{table}[{row}][{column}]: unexpected cell")
    for table in measured:
        if table not in expected:
            errors.append(f"{table}: unexpected table")
    return cells, errors


def paper_error(runs: Sequence[api.TableRun]) -> float:
    """Mean |ours - paper| / paper over every comparable cell."""
    errors = [
        abs(measured - paper) / paper
        for run in runs
        for _, _, measured, paper in run.comparison()
    ]
    return sum(errors) / len(errors)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """One workload: set-up, then timed passes, each checked."""

    name = ""
    #: Upper bound on passes (seed blocks are finite).
    max_passes = 10_000

    def __init__(self, seed: int, work: Path, expected: Optional[Dict] = None):
        self.seed = seed
        self.work = work
        self.expected = expected
        #: Problems that make the run incorrect without being a failed
        #: operation (a warm pass that missed the cache, ...).
        self.problems: List[str] = []
        #: Simulated statistics of the last pass (reported per layer).
        self.simulated: Dict[str, float] = {}
        self.cache_dir: Optional[Path] = None

    def setup(self) -> None:
        """Input preparation and warm-up; counted in ``setup_s``."""

    def prepare(self, index: int) -> None:
        """Untimed reset before timed pass *index*."""
        gc.collect()

    def steps(self, index: int) -> List[Callable[[], Any]]:
        """The API calls of pass *index*, in order."""
        raise NotImplementedError

    def run(self, index: int) -> List[Any]:
        return [step() for step in self.steps(index)]

    def check(self, index: int, outputs: List[Any]) -> Tuple[int, int]:
        """``(operations attempted, operations failed)`` of one pass."""
        raise NotImplementedError

    def use_cache_dir(self, path: Path) -> None:
        path.mkdir(parents=True, exist_ok=True)
        os.environ[CACHE_DIR_ENV] = str(path)
        self.cache_dir = path

    def cache_bytes(self) -> int:
        return directory_bytes(self.cache_dir) if self.cache_dir else 0


class TablesCold(Workload):
    """All ten tables from an empty cache and empty in-process memos."""

    name = "tables-cold"

    def __init__(self, seed, work, expected=None, *, sizes=None, tables=None):
        super().__init__(seed, work, expected)
        self.sizes = sizes
        self.tables = tuple(tables) if tables else api.list_tables()

    def prepare(self, index: int) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
        self.use_cache_dir(self.work / f"cache-{index}")
        GLOBAL_TRACE_CACHE.clear()
        clear_process_memo()
        gc.collect()

    def steps(self, index: int) -> List[Callable[[], api.TableRun]]:
        return [
            functools.partial(
                api.run_table, table, workers=1, cache=True, observe=True,
                compare=True, sizes=self.sizes,
            )
            for table in self.tables
        ]

    def expect_hits(self, run: api.TableRun) -> int:
        return 0

    def check(self, index: int, outputs: List[api.TableRun]) -> Tuple[int, int]:
        for run in outputs:
            hits = self.expect_hits(run)
            if run.stats.result_hits != hits:
                self.problems.append(
                    f"{self.name} pass {index}: {run.table.table_id} had "
                    f"{run.stats.result_hits} result hits, expected {hits}"
                )
        cells, errors = cell_mismatches(
            table_cells(outputs), self.expected["tables"]
        )
        self.problems.extend(errors[:10])
        self.simulated = {"tables.paper_err": paper_error(outputs)}
        if self.simulated["tables.paper_err"] != self.expected["paper_err"]:
            self.problems.append(
                f"paper_err {self.simulated['tables.paper_err']!r} != "
                f"{self.expected['paper_err']!r}"
            )
        return cells, len(errors)


class TablesWarm(TablesCold):
    """All ten tables served from a full DiskCache: no replay at all."""

    name = "tables-warm"
    #: The cache one cold pass filled (``run.py`` builds it once).
    fill: Optional[Path] = None

    def setup(self) -> None:
        cache = self.work / "cache"
        # Hard links: cache entries are only ever replaced, never
        # rewritten in place, so the shared fill cannot change.
        shutil.copytree(self.fill, cache, copy_function=os.link)
        self.use_cache_dir(cache)
        self.check(-1, self.run(-1))

    def prepare(self, index: int) -> None:
        gc.collect()

    def expect_hits(self, run: api.TableRun) -> int:
        return run.stats.cells


class Verify(Workload):
    """Seeded ``verify`` campaigns over the default 23-machine oracle set."""

    name = "verify"
    max_passes = (VERIFY_SEED_STRIDE - VERIFY_WARMUP_SEEDS) // VERIFY_SEEDS

    @property
    def base(self) -> int:
        return self.seed * VERIFY_SEED_STRIDE

    def campaign(self, seeds: int, first_seed: int) -> api.VerifyReport:
        return api.verify_machines(
            seeds, trace_length=VERIFY_TRACE_LENGTH, shrink=True,
            first_seed=first_seed,
        )

    def setup(self) -> None:
        self.check(-1, [self.campaign(VERIFY_WARMUP_SEEDS, self.base)])

    def steps(self, index: int) -> List[Callable[[], api.VerifyReport]]:
        first = self.base + VERIFY_WARMUP_SEEDS + index * VERIFY_SEEDS
        return [functools.partial(self.campaign, VERIFY_SEEDS, first)]

    def check(self, index: int, outputs: List[api.VerifyReport]) -> Tuple[int, int]:
        (report,) = outputs
        per_seed = self.expected["verify"]["checks_per_seed"]
        if report.checks_run != report.seeds_run * per_seed:
            self.problems.append(
                f"verify pass {index}: {report.checks_run} checks for "
                f"{report.seeds_run} seeds, expected {per_seed} per seed"
            )
        self.problems.extend(str(failure) for failure in report.failures)
        return report.seeds_run, len({f.seed for f in report.failures})


def explore_sources(key: int) -> Tuple[str, str]:
    return (f"branchy:seed={key}:n=2000", f"pointer:seed={key}:n=2000")


def reference_rate(spec: str, sources: Sequence[str], config: str) -> float:
    """Harmonic-mean issue rate of *spec* on the machine's reference loop."""
    simulator = build_simulator(spec)
    machine_config = config_by_name(config)
    inverse = 0.0
    for source in sources:
        result = simulator.reference_simulate(trace_source(source), machine_config)
        inverse += 1.0 / (result.instructions / result.cycles)
    return len(sources) / inverse


class Explore(Workload):
    """One design-space exploration per pass on fresh traces and cache."""

    name = "explore"
    max_passes = 999

    def key(self, index: int) -> int:
        return 1000 * self.seed + 1 + index

    def explore(self, key: int) -> api.ExploreRun:
        return api.explore(
            EXPLORE_SPACE, explore_sources(key), budget=24, audit=16,
            seed=key, workers=1, cache=True, observe=True,
        )

    def setup(self) -> None:
        self.prepare(-1)
        self.check(-1, self.run(-1))

    def prepare(self, index: int) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
        self.use_cache_dir(self.work / f"cache-{index}")
        gc.collect()

    def steps(self, index: int) -> List[Callable[[], api.ExploreRun]]:
        return [functools.partial(self.explore, self.key(index))]

    def check(self, index: int, outputs: List[api.ExploreRun]) -> Tuple[int, int]:
        (run,) = outputs
        key = self.key(index)
        failed = set()
        pinned = self.expected["explore"].get(str(key))
        frontier = [[point.spec, point.simulated] for point in run.frontier]
        if pinned is not None:
            for position in range(max(len(pinned), len(frontier))):
                got = frontier[position] if position < len(frontier) else None
                want = pinned[position] if position < len(pinned) else None
                if got != want:
                    failed.add(position)
                    self.problems.append(
                        f"explore K={key} frontier[{position}]: got {got}, "
                        f"expected {want}"
                    )
        rng = random.Random(key)
        count = min(EXPLORE_REFERENCE_CHECKS, len(run.frontier))
        for position in rng.sample(range(len(run.frontier)), count):
            point = run.frontier[position]
            rate = reference_rate(point.spec, run.sources, run.config)
            if rate != point.simulated:
                failed.add(position)
                self.problems.append(
                    f"explore K={key} {point.spec}: simulated "
                    f"{point.simulated!r}, reference loop {rate!r}"
                )
        # With budget=24 the frontier fills the budget and the audit
        # sample is empty, so the model error is taken over every point.
        self.simulated = {"explore.model_err": run.errors.mean_relative}
        return run.simulated_count, len(failed)


WORKLOADS = {cls.name: cls for cls in (TablesCold, TablesWarm, Verify, Explore)}

#: Per-layer metrics that come from the workload's outputs, not the trace.
SIMULATED_METRICS = ("tables.paper_err", "explore.model_err")
#: Per-layer metrics of whole passes, added by :func:`measure`.
RUN_METRICS = ("trace.wall_s", "trace.overhead_ratio", "host.calibration_ms")


# ----------------------------------------------------------------------
# The child process
# ----------------------------------------------------------------------

def calibrate() -> float:
    """Seconds the fixed calibration job takes now (best of three).

    A pure-Python loop of the same kind as the simulators' inner loops.
    The host this benchmark was built on changes speed by tens of
    percent over minutes (other tenants), and this job's time tracks
    the change closely, so timings are rescaled by it to the reference
    speed :data:`CALIBRATION_REF_S`.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        items = list(range(64))
        for i in range(30_000):
            total += (i * 7) % 13
            table[i & 255] = total
            if items[i & 63] > total:
                total -= 1
        best = min(best, time.perf_counter() - start)
    return best


#: The calibration job's time on the reference host; reported times are
#: "seconds on a host where :func:`calibrate` takes this long".
CALIBRATION_REF_S = 0.004

#: ``peak_rss_mb`` is read after this many timed passes (or the last),
#: so it does not depend on how many passes the host speed allows.
RSS_AFTER_PASSES = 3


def run_pass(
    steps: List[Callable[[], Any]], tracer: Optional[layers.Tracer] = None
) -> Tuple[List[Any], float, float, List[float]]:
    """Run one pass: ``(outputs, wall, rescaled wall, calibrations)``.

    An untraced pass calibrates between its API calls, so a long pass
    (cold tables: ten calls, about 30 s) follows the host's drift.  A
    traced pass is one span tree and calibrates around the whole pass.
    """
    before = calibrate()
    if tracer is not None:
        root = tracer.begin(layers.PASS)
        start = time.perf_counter()
        try:
            outputs = [step() for step in steps]
        finally:
            tracer.end(root)
        wall = time.perf_counter() - start
        calibration = (before + calibrate()) / 2
        return outputs, wall, wall * CALIBRATION_REF_S / calibration, [calibration]
    outputs, calibrations = [], []
    wall = scaled = 0.0
    for step in steps:
        start = time.perf_counter()
        outputs.append(step())
        step_wall = time.perf_counter() - start
        after = calibrate()
        calibrations.append((before + after) / 2)
        before = after
        wall += step_wall
        scaled += step_wall * CALIBRATION_REF_S / calibrations[-1]
    return outputs, wall, scaled, calibrations


def measure(workload: Workload, seconds: float, trace: bool) -> Dict[str, Any]:
    """Timed passes until they add up to *seconds* (at least one; with
    *trace*, untraced and traced passes alternate, at least one each).

    Reported times are rescaled to the reference host speed (see
    :func:`calibrate` and :func:`run_pass`).
    """
    walls: List[float] = []
    scaled = {False: [], True: []}
    calibrations: List[float] = []
    attempted = failed = 0
    peak_rss_mb = 0.0
    tracer = layers.Tracer()
    deltas: Dict[str, float] = {}
    cache_bytes: List[int] = []
    simulated: Dict[str, float] = {}
    index = 0
    while True:
        traced = trace and index % 2 == 1
        workload.prepare(index)
        steps = workload.steps(index)
        if traced:
            restore = layers.install(tracer)
            before = fastpath.stats()
            try:
                outputs, wall, scaled_wall, host = run_pass(steps, tracer)
            finally:
                restore()
            for key, value in fastpath.stats().items():
                deltas[key] = deltas.get(key, 0.0) + value - before.get(key, 0)
            cache_bytes.append(workload.cache_bytes())
        else:
            outputs, wall, scaled_wall, host = run_pass(steps)
        walls.append(wall)
        scaled[traced].append(scaled_wall)
        calibrations.extend(host)
        if index < RSS_AFTER_PASSES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops, bad = workload.check(index, outputs)
        attempted += ops
        failed += bad
        if traced:
            for key, value in workload.simulated.items():
                simulated[key] = simulated.get(key, 0.0) + value
        index += 1
        done = sum(walls) >= seconds and (not trace or index >= 2)
        if done or index >= workload.max_passes:
            break
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": workload.problems,
        "walls": walls,
        "scaled_walls": scaled[False],
        "calibration_s": statistics.median(calibrations),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        metrics = layers.summarize(
            tracer, fastpath_deltas=deltas, cache_bytes=cache_bytes,
            time_scale=CALIBRATION_REF_S / result["calibration_s"],
        )
        for key in SIMULATED_METRICS:
            metrics[key] = simulated.get(key, 0.0) / len(scaled[True])
        metrics["trace.wall_s"] = statistics.median(scaled[True])
        metrics["trace.overhead_ratio"] = (
            metrics["trace.wall_s"] / statistics.median(scaled[False])
        )
        metrics["host.calibration_ms"] = result["calibration_s"] * 1000
        result["layers"] = metrics
        result["nesting_errors"] = tracer.nesting_errors()[:10]
        result["tracer"] = tracer
    return result


def regenerate_expected(work: Path) -> Dict[str, Any]:
    """Recompute every pinned output (``run.py --regen-expected``)."""
    cold = TablesCold(0, work / "tables")
    cold.prepare(0)
    runs = cold.run(0)
    verify = api.verify_machines(
        VERIFY_WARMUP_SEEDS, trace_length=VERIFY_TRACE_LENGTH
    )
    per_seed = verify.checks_run // verify.seeds_run
    if per_seed != len(DEFAULT_ORACLE_MACHINES) + 1 or not verify.ok:
        raise RuntimeError(f"verify campaign looks wrong: {verify}")
    explore = Explore(0, work / "explore")
    frontiers = {}
    for key in EXPLORE_PINNED:
        explore.prepare(key)
        run = explore.explore(key)
        frontiers[str(key)] = [[p.spec, p.simulated] for p in run.frontier]
    return {
        "tables": table_cells(runs),
        "paper_err": paper_error(runs),
        "verify": {
            "machines": len(DEFAULT_ORACLE_MACHINES),
            "checks_per_seed": per_seed,
        },
        "explore": frontiers,
    }


def child(job: Dict[str, Any]) -> Dict[str, Any]:
    work = Path(job["work"])
    work.mkdir(parents=True, exist_ok=True)
    os.environ[CACHE_DIR_ENV] = str(work / "cache-default")
    if job["role"] == "regen":
        expected = regenerate_expected(work)
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        return {"written": str(EXPECTED_PATH)}
    expected = load_expected()
    if job["role"] == "fill":
        cold = TablesCold(0, work, expected)
        cold.prepare(0)
        _, failed = cold.check(0, cold.run(0))
        if failed or cold.problems:
            return {"problems": cold.problems}
        fill = Path(job["fill"])
        staging = fill.with_name(f"{fill.name}.{os.getpid()}")
        shutil.move(str(cold.cache_dir), str(staging))
        os.replace(staging, fill)
        return {"problems": []}
    workload = WORKLOADS[job["workload"]](job["seed"], work, expected)
    if isinstance(workload, TablesWarm):
        workload.fill = Path(job["fill"])
    workload.setup()
    setup_s = time.monotonic() - job["spawned"]
    setup_s *= CALIBRATION_REF_S / calibrate()
    if job["role"] == "setup":
        return {"setup_s": setup_s, "problems": workload.problems}
    result = measure(workload, job["seconds"], bool(job["trace"]))
    result["setup_s"] = setup_s
    tracer = result.pop("tracer", None)
    if tracer is not None:
        layers.write_outputs(tracer, result["layers"], Path(job["trace_prefix"]))
    return result


if __name__ == "__main__":
    print(json.dumps(child(json.loads(sys.argv[1]))))
