"""Tests for the verification runner and its CLI surface.

Covers the ``repro verify`` subcommand, the campaign runner (shrink +
reproducer dump, exercised through a stubbed invariant layer), and the
broken-pipe exit-code contract: a failure verdict survives stdout going
away mid-print.
"""

from __future__ import annotations

import pytest

import repro.cli as cli
import repro.verify.runner as runner_module
from repro.trace import read_trace
from repro.verify import (
    InvariantViolation,
    VerifyOptions,
    run_verification,
)
from repro.verify.runner import smoke_options


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_smoke_campaign_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--seeds", "3", "--trace-length", "16", "--quiet",
        )
        assert code == 0
        assert "OK" in out
        assert "3 seeds" in out

    def test_machine_subset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--seeds", "2", "--machines", "cray", "inorder:1",
            "--quiet",
        )
        assert code == 0
        assert "2 machines" in out

    def test_config_selection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--seeds", "2", "--machines", "cray",
            "--config", "M5BR2", "--quiet",
        )
        assert code == 0

    def test_unknown_machine_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--seeds", "1", "--machines", "warp-drive"
        )
        assert code == 2
        assert "warp-drive" in err

    def test_invalid_seed_count_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--seeds", "0")
        assert code == 2
        assert "seed" in err

    def test_unknown_config_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--seeds", "1", "--machines", "cray",
            "--config", "M99BR9",
        )
        assert code == 2


class TestBrokenPipeExitCode:
    """Satellite fix: a verdict set before printing survives a dead pipe."""

    @pytest.fixture(autouse=True)
    def _keep_test_stdout(self, monkeypatch):
        # The real handler dup2's /dev/null over fd 1; under pytest that
        # would clobber the capture file, so stub the detach only.
        monkeypatch.setattr(cli, "_detach_stdout", lambda: None)

    def test_failure_verdict_survives_broken_pipe(self, monkeypatch):
        def dispatch(args):
            cli._set_pending_exit(1)
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        assert cli.main(["verify", "--seeds", "1"]) == 1

    def test_error_verdict_survives_broken_pipe(self, monkeypatch):
        def dispatch(args):
            cli._set_pending_exit(2)
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        assert cli.main(["stats", "--run", "nope"]) == 2

    def test_clean_broken_pipe_still_exits_0(self, monkeypatch):
        def dispatch(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        assert cli.main(["stats"]) == 0

    def test_failure_survives_mid_campaign_pipe_break(self, monkeypatch):
        # The pipe dies while the runner is still logging failures,
        # before the final verdict line: exit must still be 1.
        def fake_check(trace, spec, config, **kwargs):
            if spec != "cray":
                return []
            return [
                InvariantViolation(
                    check="stub-check",
                    machine="cray",
                    config=config.name,
                    trace_name=trace.name,
                    seq=-1,
                    message="always fails",
                )
            ]

        def dead_pipe_print(*args, **kwargs):
            raise BrokenPipeError

        monkeypatch.setattr(runner_module, "check_invariants", fake_check)
        monkeypatch.setattr("builtins.print", dead_pipe_print)
        code = cli.main(
            ["verify", "--seeds", "2", "--machines", "simple", "cray",
             "--trace-length", "16", "--no-shrink"]
        )
        assert code == 1

    def test_pending_exit_resets_between_invocations(self, monkeypatch):
        def failing_dispatch(args):
            cli._set_pending_exit(1)
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", failing_dispatch)
        assert cli.main(["stats"]) == 1

        def clean_dispatch(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", clean_dispatch)
        assert cli.main(["stats"]) == 0


class TestRunner:
    def test_smoke_options_pass(self):
        report = run_verification(smoke_options(seeds=4))
        assert report.ok
        assert report.seeds_run == 4
        assert report.checks_run > 0

    def test_fixed_source_is_captured_and_compiled_once(self):
        """A fixed (unseeded) source resolves through the engine's trace
        memo, so every seed replays one trace object and one compile."""
        import repro.api as api
        from repro.core import fastpath
        from repro.harness.engine import clear_process_memo

        clear_process_memo()
        before = fastpath.stats()["compiles"]
        report = api.verify_machines(
            3, source="kernel:5:n=16", shrink=False
        )
        assert report.ok and report.seeds_run == 3
        assert fastpath.stats()["compiles"] - before == 1

    def test_option_validation(self):
        with pytest.raises(ValueError):
            VerifyOptions(seeds=0)
        with pytest.raises(ValueError):
            VerifyOptions(machines=())
        with pytest.raises(ValueError):
            VerifyOptions(configs=())
        with pytest.raises(ValueError):
            VerifyOptions(machines=("warp-drive",))

    def test_failure_is_shrunk_and_dumped(self, tmp_path, monkeypatch):
        # Stub the invariant layer: "cray" fails whenever the trace
        # holds a memory reference.  The runner must shrink that to a
        # single instruction and dump a replayable reproducer.
        def fake_check(trace, spec, config, **kwargs):
            if spec != "cray":
                return []
            if any(
                entry.instruction.accesses_memory
                for entry in trace.entries
            ):
                return [
                    InvariantViolation(
                        check="stub-check",
                        machine="cray",
                        config=config.name,
                        trace_name=trace.name,
                        seq=-1,
                        message="memory reference present",
                    )
                ]
            return []

        monkeypatch.setattr(runner_module, "check_invariants", fake_check)
        options = VerifyOptions(
            seeds=6,
            machines=("simple", "cray"),
            dump_dir=tmp_path,
        )
        messages = []
        report = run_verification(options, log=messages.append)
        assert not report.ok
        # One signature -> deduplicated to one reported failure.
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.check == "stub-check"
        assert failure.machine == "cray"
        # Minimal witness: exactly the one memory instruction.
        assert len(failure.trace) == 1
        assert failure.trace.entries[0].instruction.accesses_memory
        assert failure.repro_path is not None
        assert failure.repro_path.exists()
        replayed = read_trace(failure.repro_path)
        assert len(replayed) == 1
        assert any("shrunk" in message for message in messages)
        assert str(failure.repro_path) in str(failure)

    @pytest.mark.fuzz
    def test_nightly_fuzz_campaign(self):
        """The large-budget campaign nightly CI runs (excluded from tier-1)."""
        report = run_verification(VerifyOptions(seeds=400))
        assert report.ok, [str(failure) for failure in report.failures]

    @pytest.mark.fuzz
    def test_nightly_fuzz_campaign_long_traces(self):
        from repro.verify import FuzzSpec

        report = run_verification(
            VerifyOptions(
                seeds=100,
                fuzz=FuzzSpec(length=160, dependency_density=0.8),
                first_seed=10_000,
            )
        )
        assert report.ok, [str(failure) for failure in report.failures]

    def test_no_shrink_keeps_full_trace(self, monkeypatch):
        def fake_check(trace, spec, config, **kwargs):
            if spec != "cray":
                return []
            return [
                InvariantViolation(
                    check="stub-check",
                    machine="cray",
                    config=config.name,
                    trace_name=trace.name,
                    seq=-1,
                    message="always fails",
                )
            ]

        monkeypatch.setattr(runner_module, "check_invariants", fake_check)
        options = VerifyOptions(
            seeds=1, machines=("cray",), shrink=False
        )
        report = run_verification(options)
        assert len(report.failures) == 1
        assert len(report.failures[0].trace) == VerifyOptions().fuzz.length
