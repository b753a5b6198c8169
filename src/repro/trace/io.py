"""Trace serialisation: JSON-lines archives of dynamic traces.

The paper's workflow separates trace capture from timing simulation;
persisting traces makes that split concrete -- capture once (slow,
verifies the kernel), replay through any number of machine models later
or on another machine.  The format is one JSON object per line: a header
record followed by one record per dynamic instruction.

Example::

    {"kind": "header", "name": "livermore-05", "entries": 1595, "version": 1}
    {"op": "LOADS", "dest": "S2", "srcs": ["A1", 216], "static": 3}
    {"op": "JAN", "srcs": ["A0"], "target": "loop", "taken": true, "static": 8}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Dict, Iterable, List, Union

from ..isa import Instruction, Opcode, Operand, Register, parse_register
from .record import Trace, TraceEntry

FORMAT_VERSION = 1

PathOrFile = Union[str, Path, IO[str]]


class TraceFormatError(ValueError):
    """Raised when a trace archive is malformed."""


def _encode_operand(operand: Operand):
    if isinstance(operand, Register):
        return operand.name
    return operand


def _decode_operand(value) -> Operand:
    if isinstance(value, str):
        return parse_register(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceFormatError(f"bad operand in archive: {value!r}")
    return value


def _entry_record(entry: TraceEntry) -> dict:
    instr = entry.instruction
    record = {
        "op": instr.opcode.value,
        "static": entry.static_index,
    }
    if instr.dest is not None:
        record["dest"] = instr.dest.name
    if instr.srcs:
        record["srcs"] = [_encode_operand(s) for s in instr.srcs]
    if instr.target is not None:
        record["target"] = instr.target
    if entry.taken is not None:
        record["taken"] = entry.taken
    if entry.address is not None:
        record["addr"] = entry.address
    if entry.backward is not None:
        record["backward"] = entry.backward
    if entry.vector_length is not None:
        record["vl"] = entry.vector_length
    if instr.comment:
        record["comment"] = instr.comment
    return record


#: Record fields that make up an :class:`Instruction`.
_STATIC_FIELDS = ("op", "dest", "srcs", "target", "comment")


def _entry_from_record(
    seq: int, record: dict, interned: Dict[str, Instruction]
) -> TraceEntry:
    """Decode one instruction record.  *interned* maps the static fields
    of every record read so far to their :class:`Instruction`, so the
    entries of one static instruction share one object.  The key is the
    fields' ``repr``, which keeps ``1``, ``1.0`` and ``-0.0`` apart."""
    key = repr([record.get(name) for name in _STATIC_FIELDS])
    instr = interned.get(key)
    if instr is None:
        instr = interned[key] = _instruction_from_record(seq, record)
    return TraceEntry(
        seq=seq,
        static_index=int(record.get("static", seq)),
        instruction=instr,
        taken=record.get("taken"),
        address=record.get("addr"),
        backward=record.get("backward"),
        vector_length=record.get("vl"),
    )


def _instruction_from_record(seq: int, record: dict) -> Instruction:
    try:
        opcode = Opcode(record["op"])
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"record {seq}: bad opcode") from exc
    dest = parse_register(record["dest"]) if "dest" in record else None
    srcs = tuple(_decode_operand(v) for v in record.get("srcs", ()))
    return Instruction(
        opcode,
        dest,
        srcs,
        target=record.get("target"),
        comment=record.get("comment", ""),
    )


def write_trace(trace: Trace, destination: PathOrFile) -> None:
    """Write *trace* as a JSON-lines archive."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w") as handle:
            write_trace(trace, handle)
        return
    header = {
        "kind": "header",
        "name": trace.name,
        "entries": len(trace),
        "version": FORMAT_VERSION,
    }
    destination.write(json.dumps(header) + "\n")
    for entry in trace:
        destination.write(json.dumps(_entry_record(entry)) + "\n")


def read_trace(source: PathOrFile) -> Trace:
    """Read a JSON-lines trace archive back into a :class:`Trace`."""
    if isinstance(source, (str, Path)):
        with open(source) as handle:
            return read_trace(handle)

    lines = [line for line in source if line.strip()]
    if not lines:
        raise TraceFormatError("empty trace archive")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError("malformed header line") from exc
    if header.get("kind") != "header":
        raise TraceFormatError("archive does not start with a header record")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {header.get('version')!r}"
        )

    entries: List[TraceEntry] = []
    interned: Dict[str, Instruction] = {}
    for seq, line in enumerate(lines[1:]):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"malformed record {seq}") from exc
        entries.append(_entry_from_record(seq, record, interned))

    declared = header.get("entries")
    if declared is not None and declared != len(entries):
        raise TraceFormatError(
            f"header declares {declared} entries, archive has {len(entries)}"
        )
    return Trace(name=header.get("name", "archived"), entries=tuple(entries))
