"""CLI plumbing for the explorer: `repro explore`, `repro limits
--format json` and exit codes."""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro import api

SPACE = "family=ruu;width=1,2;window=4,16;bus=nbus;fu=1,2"
SOURCE = "branchy:seed=3:n=200"


def _explore_args(*extra):
    return [
        "explore", "--space", SPACE, "--sources", SOURCE,
        "--workers", "1", "--no-cache", "--no-observe", *extra,
    ]


class TestExploreCommand:
    def test_table_output(self, capsys):
        assert cli.main(_explore_args()) == 0
        out = capsys.readouterr().out
        assert "design space:" in out
        assert "screened 8 candidates" in out
        assert "model error:" in out
        assert "ruu:" in out

    def test_empty_audit_sample_is_named(self, capsys):
        # With no audit sample there is no audit error to quote; the
        # JSON payload keeps its zero-count error record.
        assert cli.main(_explore_args("--audit", "0")) == 0
        out = capsys.readouterr().out
        assert "no audit sample" in out
        assert "audit mean" not in out
        assert cli.main(_explore_args("--audit", "0", "--format", "json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit_errors"] == {
            "count": 0, "mean_relative": 0.0, "max_relative": 0.0,
        }

    def test_json_output_shape(self, capsys):
        assert cli.main(_explore_args("--format", "json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_candidates"] == 8
        assert payload["space"] == SPACE
        assert payload["sources"] == [SOURCE]
        assert payload["screen"]["seconds"] >= 0
        simulated = (
            len(payload["frontier"]) + len(payload["band"])
            + len(payload["audit"])
        )
        assert payload["errors"]["count"] == simulated
        for point in payload["frontier"]:
            assert set(point) >= {
                "spec", "cost", "predicted", "simulated", "relative_error"
            }

    def test_exhaustive_reports_recall(self, capsys):
        assert cli.main(_explore_args("--exhaustive", "--format", "json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["recall"] <= 1.0
        assert payload["true_frontier_size"] >= 1

    def test_bad_space_exits_2(self, capsys):
        code = cli.main([
            "explore", "--space", "family=ruu;width=0", "--sources", SOURCE,
        ])
        assert code == 2
        assert "bad space spec" in capsys.readouterr().err

    def test_bad_source_exits_2(self, capsys):
        code = cli.main([
            "explore", "--space", SPACE, "--sources", "nosuch:source",
        ])
        assert code == 2


class TestLimitsJson:
    def test_source_payload(self, capsys):
        assert cli.main([
            "limits", "--source", SOURCE, "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        pure, serial = payload["pure"], payload["serial"]
        assert pure["serial"] is False and serial["serial"] is True
        assert pure["actual_rate"] == pytest.approx(
            min(pure["pseudo_dataflow"]["rate"], pure["resource"]["rate"])
        )
        assert pure["resource"]["bottleneck"] in pure["resource"]["unit_times"]
        assert serial["actual_rate"] <= pure["actual_rate"] + 1e-9

    def test_kernel_payload_matches_api(self, capsys):
        assert cli.main([
            "limits", "--kernel", "5", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = api.limits("kernel:5").to_payload()
        assert payload["pure"] == expected

    def test_text_format_unchanged(self, capsys):
        assert cli.main(["limits", "--source", SOURCE]) == 0
        out = capsys.readouterr().out
        assert "pseudo-dataflow limit" in out
        assert "serial (WAW) limit" in out
