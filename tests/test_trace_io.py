"""Tests for trace serialisation (JSON-lines archives)."""

import io
import json

import pytest

from repro.core import M11BR5, cray_like_machine
from repro.kernels import build_kernel
from repro.trace import TraceFormatError, read_trace, write_trace

from helpers import fadd, jan, loads, make_trace, si, stores


def round_trip(trace):
    buffer = io.StringIO()
    write_trace(trace, buffer)
    buffer.seek(0)
    return read_trace(buffer)


class TestRoundTrip:
    def test_small_hand_trace(self):
        trace = make_trace(
            [si(1), loads(2, 1), fadd(3, 1, 2), stores(3, 1), jan(False)],
            name="hand",
        )
        loaded = round_trip(trace)
        assert loaded.name == "hand"
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.instruction.opcode == b.instruction.opcode
            assert a.instruction.dest == b.instruction.dest
            assert a.instruction.srcs == b.instruction.srcs
            assert a.instruction.target == b.instruction.target
            assert a.taken == b.taken

    def test_kernel_trace_round_trips_and_times_identically(self):
        trace = build_kernel(12, 16).verify()
        loaded = round_trip(trace)
        sim = cray_like_machine()
        assert (
            sim.simulate(trace, M11BR5).cycles
            == sim.simulate(loaded, M11BR5).cycles
        )

    def test_file_path_interface(self, tmp_path):
        trace = make_trace([si(1), fadd(2, 1, 1)])
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        loaded = read_trace(str(path))
        assert len(loaded) == 2

    def test_comments_preserved(self):
        from repro.isa import Instruction, Opcode, S

        instr = Instruction(Opcode.SI, S(1), (1.0,), comment="note")
        trace = make_trace([instr])
        assert round_trip(trace)[0].instruction.comment == "note"


class TestInterning:
    def test_static_instructions_share_one_object(self):
        """Records with equal static fields read back as one Instruction,
        and the trace still equals the one written."""
        trace = build_kernel(5, 64).verify()
        loaded = round_trip(trace)
        assert loaded == trace
        statics = {}
        for entry in loaded:
            statics.setdefault(entry.static_index, set()).add(
                id(entry.instruction)
            )
        assert all(len(ids) == 1 for ids in statics.values())
        assert len({id(e.instruction) for e in loaded}) == len(statics)
        assert len(statics) < len(loaded)

    def test_strict_import_interns_too(self, tmp_path):
        """The ``file:`` source's strict importer shares objects alike."""
        from repro.trace.importer import import_trace

        trace = build_kernel(5, 64).verify()
        path = tmp_path / "loop5.jsonl"
        write_trace(trace, path)
        imported = import_trace(path)
        assert imported == trace
        distinct = {id(e.instruction) for e in imported}
        assert len(distinct) == len({e.static_index for e in imported})

    def test_operand_types_stay_apart(self):
        """``1``, ``1.0`` and ``-0.0`` immediates compare equal in Python
        but are distinct instructions; each keeps its own operand."""
        from repro.isa import Instruction, Opcode, S

        values = (1, 1.0, -0.0, 0.0, 1.0)
        trace = make_trace(
            [Instruction(Opcode.SI, S(1), (value,)) for value in values]
        )
        loaded = round_trip(trace)
        read = [entry.instruction.srcs[0] for entry in loaded]
        assert [repr(v) for v in read] == [repr(v) for v in values]
        assert loaded[1].instruction is loaded[4].instruction
        assert loaded[0].instruction is not loaded[1].instruction


class TestFormatErrors:
    def test_empty_archive(self):
        with pytest.raises(TraceFormatError, match="empty"):
            read_trace(io.StringIO(""))

    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            read_trace(io.StringIO('{"op": "PASS"}\n'))

    def test_bad_version(self):
        header = json.dumps({"kind": "header", "name": "x", "version": 99})
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(io.StringIO(header + "\n"))

    def test_malformed_json(self):
        header = json.dumps(
            {"kind": "header", "name": "x", "version": 1, "entries": 1}
        )
        with pytest.raises(TraceFormatError, match="malformed record"):
            read_trace(io.StringIO(header + "\n{nope\n"))

    def test_bad_opcode(self):
        header = json.dumps(
            {"kind": "header", "name": "x", "version": 1, "entries": 1}
        )
        body = json.dumps({"op": "FROB"})
        with pytest.raises(TraceFormatError, match="bad opcode"):
            read_trace(io.StringIO(header + "\n" + body + "\n"))

    def test_entry_count_mismatch(self):
        header = json.dumps(
            {"kind": "header", "name": "x", "version": 1, "entries": 5}
        )
        body = json.dumps({"op": "PASS"})
        with pytest.raises(TraceFormatError, match="declares 5"):
            read_trace(io.StringIO(header + "\n" + body + "\n"))

    def test_bad_operand(self):
        header = json.dumps(
            {"kind": "header", "name": "x", "version": 1, "entries": 1}
        )
        body = json.dumps({"op": "AI", "dest": "A1", "srcs": [None]})
        with pytest.raises(TraceFormatError, match="bad operand"):
            read_trace(io.StringIO(header + "\n" + body + "\n"))
