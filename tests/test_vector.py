"""Tests for the vector-unit extension: ISA, interpreter, timing, kernels."""

import numpy as np
import pytest

from repro.asm import ExecutionError, Memory, ProgramBuilder, parse_program, run
from repro.core import (
    M11BR5,
    InOrderMultiIssueMachine,
    OutOfOrderMultiIssueMachine,
    RUUMachine,
    ScoreboardMachine,
    SimpleMachine,
    cray_like_machine,
    fastpath,
)
from repro.isa import (
    A,
    Instruction,
    InstructionError,
    Opcode,
    S,
    V,
    VECTOR_LENGTH_MAX,
    VL,
)
from repro.kernels import build_kernel
from repro.kernels.vectorized import VECTORIZED_LOOPS, build_vectorized
from repro.limits import compute_limits
from repro.trace import generate_trace


def vector_program(n=8):
    """A small SAXPY-style vector program: mem[32..] = 2*mem[16..] + it."""
    b = ProgramBuilder("vec")
    b.si(S(1), 2.0)
    b.ai(A(1), 16)
    b.ai(A(2), 32)
    b.vsetl(n)
    b.vload(V(1), A(1), 1)
    b.vsmul(V(2), S(1), V(1))
    b.vvadd(V(3), V(2), V(1))
    b.vstore(V(3), A(2), 1)
    return b.build()


class TestVectorISA:
    def test_vl_register(self):
        assert VL.file.size == 1
        assert VL.name == "L0"

    def test_vector_ops_read_vl_implicitly(self):
        instr = Instruction(Opcode.VVADD, V(1), (V(2), V(3)))
        assert VL in instr.source_registers
        assert instr.is_vector

    def test_vsetl_dest_must_be_l0(self):
        with pytest.raises(InstructionError):
            Instruction(Opcode.VSETL, A(1), (4,))

    def test_vector_alu_operand_types(self):
        with pytest.raises(InstructionError):
            Instruction(Opcode.VVADD, V(1), (S(1), V(2)))
        with pytest.raises(InstructionError):
            Instruction(Opcode.VSADD, V(1), (V(2), V(3)))
        with pytest.raises(InstructionError):
            Instruction(Opcode.VVADD, S(1), (V(2), V(3)))

    def test_vector_memory_operand_types(self):
        with pytest.raises(InstructionError):
            Instruction(Opcode.VLOAD, S(1), (A(1), 1))
        with pytest.raises(InstructionError):
            Instruction(Opcode.VSTORE, None, (S(1), A(1), 1))

    def test_vstore_writes_no_register(self):
        assert not Opcode.VSTORE.writes_register
        assert Opcode.VLOAD.writes_register

    def test_parser_round_trips_vector_code(self):
        program = vector_program()
        parsed = parse_program(program.disassemble())
        assert [i.opcode for i in parsed] == [i.opcode for i in program]


class TestVectorInterpreter:
    def test_saxpy_semantics(self):
        memory = Memory(64)
        data = np.arange(1.0, 9.0)
        memory.write_block(16, data)
        run(vector_program(8), memory)
        got = memory.read_block(32, 8)
        assert np.array_equal(got, 3.0 * data)

    def test_strided_load(self):
        b = ProgramBuilder("stride")
        b.ai(A(1), 0)
        b.ai(A(2), 40)
        b.vsetl(4)
        b.vload(V(1), A(1), 2, comment="every other word")
        b.vstore(V(1), A(2), 1)
        memory = Memory(64)
        memory.write_block(0, np.arange(8.0))
        run(b.build(), memory)
        assert list(memory.read_block(40, 4)) == [0.0, 2.0, 4.0, 6.0]

    def test_vl_out_of_range(self):
        b = ProgramBuilder("bad")
        b.vsetl(VECTOR_LENGTH_MAX + 1)
        with pytest.raises(ExecutionError):
            run(b.build(), Memory(8))

    def test_vector_op_without_vl(self):
        b = ProgramBuilder("novl")
        b.ai(A(1), 0)
        b.vload(V(1), A(1), 1)
        with pytest.raises(ExecutionError, match="L0"):
            run(b.build(), Memory(8))

    def test_uninitialised_vector_register(self):
        b = ProgramBuilder("uninit")
        b.vsetl(4)
        b.vvadd(V(1), V(2), V(3))
        with pytest.raises(ExecutionError, match="uninitialised vector"):
            run(b.build(), Memory(8))

    def test_elements_beyond_vl_preserved(self):
        b = ProgramBuilder("tail")
        b.ai(A(1), 0)
        b.vsetl(8)
        b.vload(V(1), A(1), 1)
        b.vsetl(2)
        b.si(S(1), 100.0)
        b.vsadd(V(1), S(1), V(1))
        b.vsetl(8)
        b.ai(A(2), 16)
        b.vstore(V(1), A(2), 1)
        memory = Memory(32)
        memory.write_block(0, np.arange(8.0))
        run(b.build(), memory)
        out = memory.read_block(16, 8)
        assert list(out[:2]) == [100.0, 101.0]
        assert list(out[2:]) == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def test_trace_records_vector_length(self):
        memory = Memory(64)
        memory.write_block(16, np.ones(8))
        trace = generate_trace(vector_program(8), memory)
        vector_entries = [e for e in trace if e.instruction.is_vector]
        assert vector_entries
        assert all(e.vector_length == 8 for e in vector_entries)


class TestVectorTiming:
    def _trace(self, n=8):
        memory = Memory(64)
        memory.write_block(16, np.ones(8))
        return generate_trace(vector_program(n), memory)

    def test_exact_chained_timing(self):
        trace = self._trace(8)
        sim = cray_like_machine()
        # si@0 c1; ai@1 c2; ai@2 c3; vsetl@3 c4 (L0);
        # vload: reads A1(2), L0(4) -> issue@4, chain-ready 15, done 23,
        #   memory port busy till 12;
        # vsmul: reads S1, V1(chain 15), L0 -> issue@15, chain 22, done 30;
        # vvadd: reads V2(chain 22), V1(done... chain 15), L0 -> issue@22,
        #   chain 28, done 36;
        # vstore: reads V3 (chain 28), A2, L0; memory port free -> issue@28,
        #   done 28+11+8 = 47.
        assert sim.simulate(trace, M11BR5).cycles == 47

    def test_no_chaining_is_slower(self):
        trace = self._trace(8)
        chained = cray_like_machine()
        unchained = ScoreboardMachine(
            fu_pipelined=True,
            memory_interleaved=True,
            vector_chaining=False,
        )
        assert (
            unchained.simulate(trace, M11BR5).cycles
            > chained.simulate(trace, M11BR5).cycles
        )

    def test_longer_vectors_amortise(self):
        # Cycles per element fall as VL grows.
        short = self._trace(2)
        long = self._trace(8)
        sim = cray_like_machine()
        per_short = sim.simulate(short, M11BR5).cycles / 2
        per_long = sim.simulate(long, M11BR5).cycles / 8
        assert per_long < per_short

    def test_simple_machine_accepts_vector_code(self):
        trace = self._trace(8)
        result = SimpleMachine().simulate(trace, M11BR5)
        assert result.cycles > 0

    @pytest.mark.parametrize(
        "machine",
        [
            InOrderMultiIssueMachine(4),
            OutOfOrderMultiIssueMachine(4),
            RUUMachine(2, 20),
        ],
        ids=lambda m: m.name,
    )
    def test_scalar_only_machines_reject_vector_traces(self, machine):
        trace = self._trace(4)
        with pytest.raises(ValueError, match="scalar"):
            machine.simulate(trace, M11BR5)

    def test_sweep_raises_the_first_scalar_only_member_in_item_order(self):
        """A sweep fails on the member per-member dispatch would fail on:
        the first non-scoreboard machine in item order, although the
        sweep holds its RUU members back to replay them together."""
        trace = self._trace(4)
        ruu = RUUMachine(2, 20)
        members = [cray_like_machine(), ruu, OutOfOrderMultiIssueMachine(4)]
        previous = fastpath.set_enabled(True)
        try:
            with pytest.raises(ValueError, match="scalar") as raised:
                fastpath.simulate_sweep(
                    trace, [(machine, M11BR5) for machine in members]
                )
        finally:
            fastpath.set_enabled(previous)
        assert str(raised.value).startswith(f"{ruu.name} models scalar")

    def test_limits_account_for_elements(self):
        trace = self._trace(8)
        limits = compute_limits(trace, M11BR5)
        # 8 instructions but 4*8 = 32 element-operations; the memory unit
        # alone is busy 16 cycles, so the resource bound reflects elements.
        assert limits.resource.makespan >= 16
        rate = cray_like_machine().issue_rate(trace, M11BR5)
        assert rate <= limits.actual_rate * 1.0001


class TestVectorizedKernels:
    @pytest.mark.parametrize("number", VECTORIZED_LOOPS)
    def test_verify_against_scalar_references(self, number):
        build_vectorized(number, 96 if number != 7 else None).verify()

    @pytest.mark.parametrize("number", VECTORIZED_LOOPS)
    def test_substantial_speedup_over_scalar(self, number):
        sim = cray_like_machine()
        vector = build_vectorized(number)
        scalar = build_kernel(number)
        cycles_v = sim.simulate(vector.verify(), M11BR5).cycles
        cycles_s = sim.simulate(scalar.trace(), M11BR5).cycles
        assert cycles_s / cycles_v > 4.0

    def test_remainder_strip_handled(self):
        # 70 = 6 (remainder) + 64: two strips, first short.
        instance = build_vectorized(12, 70)
        instance.verify()

    def test_unknown_loop_rejected(self):
        with pytest.raises(ValueError):
            build_vectorized(5)
