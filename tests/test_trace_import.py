"""The external-trace importer's contract.

* Export -> import -> export is **byte-stable** for every registry
  family (the JSONL archive is the interchange format, so a lossy or
  unstable round trip would corrupt third-party workflows).
* Archives from unsupported schema versions are rejected by name.
* Every file in ``tests/data/malformed_traces/`` fails with exactly one
  ``path:line: reason`` diagnostic -- checked against a pinned
  expectation table so a new failure mode must document itself here --
  and the CLI prints that single line to stderr with no stack trace.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.trace import (
    SUPPORTED_VERSIONS,
    Trace,
    TraceImportError,
    export_trace,
    import_trace,
    trace_source,
)

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "malformed_traces"

pytestmark = pytest.mark.sources


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------

ROUND_TRIP_SOURCES = (
    "kernel:5",
    "kernel:1:vector=on",
    "branchy:n=64",
    "pointer:n=64:chains=3",
    "mixed:n=100",
    "fuzz:seed=9",
    "synthetic:stride:n=8",
)


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_export_import_export_is_byte_stable(source, tmp_path):
    trace = trace_source(source)
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    export_trace(trace, first)
    imported = import_trace(first)
    export_trace(imported, second)
    assert first.read_bytes() == second.read_bytes(), source
    assert imported.name == trace.name
    assert list(imported.entries) == list(trace.entries)


def test_imported_trace_replays_identically(tmp_path):
    """An archive replays with the same timing as the live trace."""
    from repro.core import M11BR5, build_simulator

    trace = trace_source("branchy:n=96:seed=4")
    path = tmp_path / "b.jsonl"
    export_trace(trace, path)
    imported = import_trace(path)
    for spec in ("cray", "tomasulo", "ruu:2:50"):
        simulator = build_simulator(spec)
        assert (
            simulator.simulate(imported, M11BR5).cycles
            == simulator.simulate(trace, M11BR5).cycles
        ), spec


def test_import_from_open_handle_uses_label_in_diagnostics():
    handle = io.StringIO('{"bogus": 1}\n')
    with pytest.raises(TraceImportError) as error:
        import_trace(handle, name="upload.jsonl")
    assert str(error.value).startswith("upload.jsonl:1: ")


def test_missing_file_is_a_trace_import_error(tmp_path):
    ghost = tmp_path / "nope.jsonl"
    with pytest.raises(TraceImportError) as error:
        import_trace(ghost)
    assert error.value.path == str(ghost)
    assert "cannot read trace archive" in str(error.value)


# ----------------------------------------------------------------------
# Schema versioning
# ----------------------------------------------------------------------

def test_supported_versions_is_currently_v1():
    assert SUPPORTED_VERSIONS == (1,)


@pytest.mark.parametrize("version", (0, 2, "1", None))
def test_unsupported_versions_rejected_by_name(version, tmp_path):
    path = tmp_path / "versioned.jsonl"
    header = {"kind": "header", "name": "t", "version": version}
    body = '{"op": "AI", "static": 0, "dest": "A0", "srcs": [1]}'
    path.write_text(json.dumps(header) + "\n" + body + "\n")
    with pytest.raises(TraceImportError) as error:
        import_trace(path)
    message = str(error.value)
    assert f"unsupported trace format version {version!r}" in message
    assert "reads version 1" in message
    assert error.value.line == 1


# ----------------------------------------------------------------------
# The malformed corpus
# ----------------------------------------------------------------------

#: fixture file -> (1-based line, reason fragment).  Adding a fixture
#: without a row here fails test_corpus_expectations_cover_every_fixture.
CORPUS_EXPECTATIONS = {
    "not_json.jsonl": (1, "not valid JSON"),
    "not_object.jsonl": (2, "expected a JSON object, got list"),
    "missing_header.jsonl": (1, "first record must be the header"),
    "future_version.jsonl": (1, "unsupported trace format version 2"),
    "second_header.jsonl": (3, "second header record"),
    "unknown_header_field.jsonl": (1, "unknown header field(s): producer"),
    "bad_entries_field.jsonl": (
        1, "header field 'entries' must be a non-negative integer"
    ),
    "bad_name_type.jsonl": (1, "header field 'name' must be a string"),
    "entries_mismatch.jsonl": (
        1, "header declares 3 entries, archive has 2"
    ),
    "empty.jsonl": (1, "empty trace archive"),
    "header_only.jsonl": (1, "archive has a header but no entries"),
    "unknown_record_field.jsonl": (2, "unknown record field(s): opcode"),
    "missing_op.jsonl": (2, "record is missing the 'op' field"),
    "bad_opcode.jsonl": (2, "bad opcode"),
    "branch_without_taken.jsonl": (2, "must record its outcome"),
}


def test_corpus_expectations_cover_every_fixture():
    fixtures = {path.name for path in CORPUS.glob("*.jsonl")}
    assert fixtures == set(CORPUS_EXPECTATIONS)


@pytest.mark.parametrize("fixture", sorted(CORPUS_EXPECTATIONS))
def test_malformed_archive_diagnostic(fixture):
    path = CORPUS / fixture
    line, fragment = CORPUS_EXPECTATIONS[fixture]
    with pytest.raises(TraceImportError) as error:
        import_trace(path)
    exc = error.value
    assert exc.path == str(path)
    assert exc.line == line
    assert fragment in exc.reason
    message = str(exc)
    assert message.startswith(f"{path}:{line}: ")
    assert "\n" not in message, "diagnostic must be a single line"


@pytest.mark.parametrize(
    "fixture", ("not_json.jsonl", "future_version.jsonl", "missing_op.jsonl")
)
def test_cli_prints_one_line_and_no_traceback(fixture):
    """`repro simulate --source file:<bad>` exits 2 with the diagnostic
    alone on stderr -- the fail-soft face of strict validation."""
    path = CORPUS / fixture
    result = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", "--source",
         f"file:{path}"],
        capture_output=True, text=True,
        cwd=Path(__file__).parent.parent,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 2
    stderr = result.stderr.strip()
    assert stderr.startswith("error: ")
    assert f"{path}:" in stderr
    assert "Traceback" not in result.stderr
    assert len(stderr.splitlines()) == 1


def test_replay_through_every_surface(tmp_path):
    """One archive drives simulate/sweep/limits/verify-adjacent APIs."""
    import repro.api as api

    trace = trace_source("fuzz:seed=3:len=48")
    path = tmp_path / "t.jsonl"
    assert api.capture("fuzz:seed=3:len=48", str(path)) == len(trace)

    spec = f"file:{path}"
    sim = api.simulate(spec, "ooo:2")
    assert sim.instructions == len(trace)
    limits = api.limits(spec)
    assert limits.actual_rate > 0
    stats = api.source_stats(spec)
    assert stats.length == len(trace)
    run = api.run_sweep(["cray", "tomasulo"], [spec])
    assert len(run.results) == 2
    resolved = api.resolve_trace(spec)
    assert isinstance(resolved, Trace)
    assert list(resolved.entries) == list(trace.entries)

    # And through the verifier: a fixed source replays the same trace
    # each iteration while the configs rotate.
    report = api.verify_machines(
        2, source=spec, machines=["cray", "ooo:2"], shrink=False
    )
    assert report.ok
    assert report.seeds_run == 2
