"""External trace import: strict, diagnosable JSONL archive loading.

:mod:`repro.trace.io` defines the archive format (one JSON object per
line: a header record, then one record per dynamic instruction) and a
reader tuned for archives the repo wrote itself.  This module is the
*border checkpoint* for third-party traces -- the ``file:`` head of the
trace-source registry: the same schema, but validated line by line so a
malformed archive fails with one precise ``path:line: message``
diagnostic (:class:`TraceImportError`) instead of a stack trace from
deep inside trace construction.

The schema is versioned (``FORMAT_VERSION`` in the header) and
documented with a worked example in ``docs/traces.md``.  Imported traces
are ordinary :class:`~repro.trace.Trace` objects: they replay through
every machine, limit bound, telemetry record and verifier, and
re-exporting one (:func:`export_trace` /
:func:`~repro.trace.io.write_trace`) is byte-stable -- export, import
and export again produce identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Dict, List, Optional, Union

from ..isa import Instruction
from .io import (
    FORMAT_VERSION,
    PathOrFile,
    TraceFormatError,
    _entry_from_record,
    write_trace,
)
from .record import Trace, TraceEntry

__all__ = [
    "SUPPORTED_VERSIONS",
    "TraceImportError",
    "export_trace",
    "import_trace",
]

#: Archive format versions this importer understands.
SUPPORTED_VERSIONS = (FORMAT_VERSION,)

#: Keys an instruction record may carry (anything else is a typo or a
#: foreign format, and strict import says so rather than guessing).
_RECORD_KEYS = frozenset(
    ("op", "static", "dest", "srcs", "target", "taken", "addr",
     "backward", "vl", "comment")
)
_HEADER_KEYS = frozenset(("kind", "name", "entries", "version"))


class TraceImportError(TraceFormatError):
    """A malformed external trace archive, located to one line.

    Carries the offending path and 1-based line number; the message is
    always a single ``path:line: reason`` diagnostic, suitable for
    printing verbatim by the CLI.
    """

    def __init__(
        self, reason: str, *, path: str, line: Optional[int] = None
    ) -> None:
        self.path = path
        self.line = line
        self.reason = reason
        location = f"{path}:{line}" if line is not None else path
        super().__init__(f"{location}: {reason}")


def import_trace(source: PathOrFile, *, name: str = "") -> Trace:
    """Read an external JSONL trace archive, validating line by line.

    Accepts a path or an open text handle (*name* labels handle input
    in diagnostics).  Raises :class:`TraceImportError` -- never a bare
    parse or construction error -- for any malformed input.
    """
    if isinstance(source, (str, Path)):
        path = str(source)
        try:
            with open(source) as handle:
                return _import_lines(handle, path)
        except OSError as exc:
            raise TraceImportError(
                f"cannot read trace archive ({exc.strerror or exc})",
                path=path,
            ) from None
    return _import_lines(source, name or "<trace>")


def export_trace(trace: Trace, destination: PathOrFile) -> None:
    """Write *trace* in the importable archive format.

    Thin alias of :func:`repro.trace.io.write_trace`, re-exported here
    so import and export live behind one module; the output round-trips
    through :func:`import_trace` byte-stably.
    """
    write_trace(trace, destination)


# ----------------------------------------------------------------------
# Line-by-line validation
# ----------------------------------------------------------------------

def _fail(path: str, line: int, reason: str) -> TraceImportError:
    return TraceImportError(reason, path=path, line=line)


def _import_lines(handle: IO[str], path: str) -> Trace:
    header = None
    header_line = 0
    entries: List[TraceEntry] = []
    interned: Dict[str, Instruction] = {}
    declared: Optional[int] = None
    trace_name = "imported"

    line_number = 0
    for line_number, line in enumerate(handle, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _fail(path, line_number, f"not valid JSON ({exc.msg})")
        if not isinstance(record, dict):
            raise _fail(
                path, line_number,
                f"expected a JSON object, got {type(record).__name__}",
            )

        if header is None:
            header = _check_header(record, path, line_number)
            header_line = line_number
            trace_name = header.get("name") or "imported"
            declared = header.get("entries")
            continue
        if record.get("kind") == "header":
            raise _fail(path, line_number, "second header record")
        entries.append(
            _check_entry(record, len(entries), path, line_number, interned)
        )

    if header is None:
        raise _fail(path, max(line_number, 1), "empty trace archive")
    if not entries:
        raise _fail(path, header_line, "archive has a header but no entries")
    if declared is not None and declared != len(entries):
        raise _fail(
            path, header_line,
            f"header declares {declared} entries, archive has {len(entries)}",
        )
    return Trace(name=str(trace_name), entries=tuple(entries))


def _check_header(record: dict, path: str, line: int) -> dict:
    if record.get("kind") != "header":
        raise _fail(
            path, line,
            "first record must be the header "
            '({"kind": "header", "name": ..., "version": 1})',
        )
    unknown = set(record) - _HEADER_KEYS
    if unknown:
        raise _fail(
            path, line,
            f"unknown header field(s): {', '.join(sorted(unknown))}",
        )
    version = record.get("version")
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise _fail(
            path, line,
            f"unsupported trace format version {version!r} "
            f"(this importer reads version {supported})",
        )
    declared = record.get("entries")
    if declared is not None and (
        isinstance(declared, bool) or not isinstance(declared, int)
        or declared < 0
    ):
        raise _fail(
            path, line,
            f"header field 'entries' must be a non-negative integer, "
            f"got {declared!r}",
        )
    name = record.get("name")
    if name is not None and not isinstance(name, str):
        raise _fail(
            path, line, f"header field 'name' must be a string, got {name!r}"
        )
    return record


def _check_entry(
    record: dict, seq: int, path: str, line: int,
    interned: Dict[str, Instruction],
) -> TraceEntry:
    unknown = set(record) - _RECORD_KEYS
    if unknown:
        raise _fail(
            path, line,
            f"unknown record field(s): {', '.join(sorted(unknown))}",
        )
    if "op" not in record:
        raise _fail(path, line, "record is missing the 'op' field")
    try:
        return _entry_from_record(seq, record, interned)
    except TraceFormatError as exc:
        # io's reader prefixes "record N:"; strip it for the path:line form.
        reason = str(exc)
        prefix = f"record {seq}: "
        if reason.startswith(prefix):
            reason = reason[len(prefix):]
        raise _fail(path, line, reason)
    except ValueError as exc:
        # Instruction/TraceEntry construction errors: ISA-invalid records.
        raise _fail(path, line, str(exc))
