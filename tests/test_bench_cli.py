"""The ``repro bench`` subcommand: schema, speed budget, compare verdicts.

The quick suite is the CI smoke configuration, so the budget test pins
what CI relies on: well under 30 seconds, schema-valid v1 JSON with
environment metadata, and a committed-baseline comparison whose exit
code distinguishes regression (1) from noise (0) from a bad baseline
file (2) -- with the verdict surviving a broken stdout pipe.
"""

from __future__ import annotations

import json
import time

import pytest

import repro.cli as cli
from repro.bench import (
    BenchReport,
    QUICK_OPTIONS,
    compare_reports,
    load_report,
    validate_payload,
)


def _tiny_args(out_path, *extra):
    """A sub-second bench invocation for CLI plumbing tests."""
    return [
        "bench", "--quick", "--quiet",
        "--seeds", "2", "--trace-length", "64", "--rounds", "1",
        "--machines", "cray",
        "--out", str(out_path),
        *extra,
    ]


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One real --quick run shared by the schema and budget tests."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_quick.json"
    start = time.perf_counter()
    code = cli.main(["bench", "--quick", "--quiet", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    return out, elapsed


class TestQuickRun:
    def test_quick_budget_under_30s(self, quick_report):
        _, elapsed = quick_report
        assert elapsed < 30, f"--quick took {elapsed:.1f}s"

    def test_report_is_schema_valid(self, quick_report):
        out, _ = quick_report
        payload = json.loads(out.read_text())
        assert validate_payload(payload) == []
        report = BenchReport.from_payload(payload)
        assert report.name == "fastpath"
        assert report.environment["python"]
        assert report.environment["cpu_count"] >= 1
        assert report.parameters["quick"] is True

    def test_covers_both_benchmark_families(self, quick_report):
        """Exactly the replay-layer ratios: per-machine fast vs reference
        and Table 7's RUU sweep vs per-spec replay.  Table, cache and
        explorer speed belong to the end-to-end benchmark."""
        out, _ = quick_report
        report = load_report(out)
        ids = {result.id for result in report.results}
        expected = {
            f"machine.{spec}.{kind}"
            for spec in QUICK_OPTIONS.machines
            for kind in ("fast", "reference", "speedup")
        } | {
            f"sweep.table7.{kind}"
            for kind in ("batch", "perspec", "speedup")
        }
        assert ids == expected

    def test_speedup_exceeds_acceptance_floor(self, quick_report):
        """The PR's acceptance target: >= 3x on the fast-path machines."""
        out, _ = quick_report
        report = load_report(out)
        for spec in QUICK_OPTIONS.machines:
            speedup = report.result(f"machine.{spec}.speedup")
            assert speedup is not None
            assert speedup.value >= 3.0, (
                f"{spec}: fast path only {speedup.value:.2f}x"
            )


def _synthetic_report(scale=1.0):
    """A deterministic report (wall-clock noise would swamp threshold
    tests that re-run the real suite)."""
    from repro.bench import environment_metadata

    report = BenchReport(
        name="fastpath",
        created="2026-01-01T00:00:00Z",
        environment=environment_metadata(),
        parameters={"quick": True},
    )
    report.add("machine.cray.fast", 1_000_000.0 * scale, "instr/s")
    report.add("machine.cray.reference", 100_000.0 * scale, "instr/s")
    report.add("machine.cray.speedup", 10.0, "x")
    # Unscaled: threshold tests pivot on the throughput entries only.
    report.add("sweep.table7.speedup", 1.4, "x")
    return report


@pytest.fixture
def stub_suite(monkeypatch):
    """Replace the expensive suite with the fixed synthetic report."""
    report = _synthetic_report()
    monkeypatch.setattr(
        cli.api, "run_bench", lambda *args, **kwargs: report
    )
    return report


class TestCompareVerdicts:
    def _baseline(self, tmp_path, scale):
        path = tmp_path / "baseline.json"
        _synthetic_report(scale).write(path)
        return path

    def test_noise_deltas_exit_zero(self, tmp_path, stub_suite):
        # Baseline 10% better than current: inside the 25% noise band.
        baseline = self._baseline(tmp_path, 1.10)
        out = tmp_path / "current.json"
        assert cli.main(_tiny_args(out, "--compare", str(baseline))) == 0

    def test_injected_regression_exits_nonzero(
        self, tmp_path, stub_suite, capsys
    ):
        # Baseline claims 10x current throughput: a -90% regression.
        baseline = self._baseline(tmp_path, 10.0)
        out = tmp_path / "current.json"
        code = cli.main(_tiny_args(out, "--compare", str(baseline)))
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag_softens_verdict(self, tmp_path, stub_suite):
        # 1.5x baseline = a 33% regression: fails at 25%, passes at 50%.
        baseline = self._baseline(tmp_path, 1.5)
        out = tmp_path / "current.json"
        assert cli.main(_tiny_args(out, "--compare", str(baseline))) == 1
        assert cli.main(
            _tiny_args(out, "--compare", str(baseline), "--threshold", "0.5")
        ) == 0

    def test_real_run_self_comparable(self, tmp_path):
        # One real end-to-end run: a fresh measurement against its own
        # file must sit inside the default noise band.
        out = tmp_path / "current.json"
        assert cli.main(_tiny_args(out)) == 0
        assert cli.main(_tiny_args(out, "--compare", str(out))) in (0, 1)

    def test_bad_baseline_exits_two_before_benching(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "not-a-bench-report"}')
        out = tmp_path / "current.json"
        start = time.perf_counter()
        code = cli.main(_tiny_args(out, "--compare", str(bad)))
        assert code == 2
        # Validation happens before the suite runs, so failure is fast
        # and no report is written.
        assert time.perf_counter() - start < 5
        assert not out.exists()

    def test_missing_baseline_file_exits_two(self, tmp_path):
        out = tmp_path / "current.json"
        code = cli.main(_tiny_args(out, "--compare", str(tmp_path / "nope")))
        assert code == 2


@pytest.mark.bench
def test_full_suite_meets_speedup_target(tmp_path):
    """Nightly: the full (non-quick) suite validates and the fast path
    holds the >= 3x acceptance floor at production trace lengths."""
    from repro.bench import DEFAULT_OPTIONS, run_suite

    report = run_suite(DEFAULT_OPTIONS)
    assert validate_payload(report.to_payload()) == []
    out = tmp_path / "BENCH_full.json"
    report.write(out)
    reloaded = load_report(out)
    for spec in DEFAULT_OPTIONS.machines:
        speedup = reloaded.result(f"machine.{spec}.speedup")
        assert speedup is not None and speedup.value >= 3.0, (
            f"{spec}: {speedup.value if speedup else None}"
        )


class TestCompareSemantics:
    def _report(self, values, higher=True):
        return BenchReport(
            name="t",
            created="2026-01-01T00:00:00Z",
            environment={"implementation": "CPython", "machine": "x86_64"},
            parameters={},
            results=[],
        ), values, higher

    def test_new_and_missing_ids_never_regress(self, tmp_path):
        current, _, _ = self._report({})
        baseline, _, _ = self._report({})
        current.add("only.current", 1.0, "x")
        baseline.add("only.baseline", 1.0, "x")
        comparison = compare_reports(current, baseline)
        assert comparison.ok
        assert comparison.added == ("only.current",)
        assert comparison.missing == ("only.baseline",)

    def test_lower_is_better_direction(self):
        current, _, _ = self._report({})
        baseline, _, _ = self._report({})
        baseline.add("wall", 1.0, "s", higher_is_better=False)
        current.add("wall", 2.0, "s", higher_is_better=False)  # 2x slower
        comparison = compare_reports(current, baseline, threshold=0.25)
        assert not comparison.ok
        assert comparison.regressions[0].change == pytest.approx(-1.0)

    def test_improvements_never_flag(self):
        current, _, _ = self._report({})
        baseline, _, _ = self._report({})
        baseline.add("rate", 100.0, "instr/s")
        current.add("rate", 10_000.0, "instr/s")
        assert compare_reports(current, baseline).ok


class TestBrokenPipeVerdict:
    """PR 3's _pending_exit contract extends to bench --compare."""

    @pytest.fixture(autouse=True)
    def _keep_test_stdout(self, monkeypatch):
        monkeypatch.setattr(cli, "_detach_stdout", lambda: None)

    def test_regression_verdict_survives_broken_pipe(
        self, tmp_path, monkeypatch, stub_suite
    ):
        out = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        _synthetic_report(10.0).write(baseline)

        real_print = print

        def dying_print(*args, **kwargs):
            text = args[0] if args else ""
            if isinstance(text, str) and "compare vs" in text:
                raise BrokenPipeError
            real_print(*args, **kwargs)

        monkeypatch.setattr("builtins.print", dying_print)
        code = cli.main(_tiny_args(out, "--compare", str(baseline)))
        assert code == 1
