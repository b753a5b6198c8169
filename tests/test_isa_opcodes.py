"""Unit tests for opcode metadata."""

import pytest

from repro.isa import OPCODE_INFO, FunctionalUnit, OpKind, Opcode


class TestMetadataCompleteness:
    def test_every_opcode_has_info(self):
        for opcode in Opcode:
            assert opcode in OPCODE_INFO
            info = opcode.info
            assert info.parcels in (1, 2)
            assert info.n_srcs >= 0

    def test_info_is_consistent_with_properties(self):
        for opcode in Opcode:
            assert opcode.unit is opcode.info.unit
            assert opcode.kind is opcode.info.kind
            assert opcode.parcels == opcode.info.parcels


class TestMemberAttributes:
    """Static facts are plain member attributes, filled from the table."""

    FACTS = (
        "info", "unit", "kind", "parcels", "is_branch", "is_memory",
        "writes_register", "is_vector", "reads_vector_length",
    )

    def test_every_fact_is_stored_on_the_member(self):
        for opcode in Opcode:
            assert set(self.FACTS) <= set(vars(opcode)), opcode
        for name in self.FACTS:
            assert not isinstance(vars(Opcode).get(name), property), name

    def test_attributes_match_the_table(self):
        for opcode in Opcode:
            info = OPCODE_INFO[opcode]
            assert opcode.info is info
            assert opcode.unit is info.unit
            assert opcode.kind is info.kind
            assert opcode.parcels == info.parcels

    def test_predicates_follow_the_kind(self):
        branch = {OpKind.BRANCH_COND, OpKind.BRANCH_UNCOND}
        memory = {OpKind.LOAD, OpKind.STORE}
        vector = {OpKind.VECTOR_LOAD, OpKind.VECTOR_STORE, OpKind.VECTOR_ALU}
        no_result = branch | {OpKind.STORE, OpKind.VECTOR_STORE, OpKind.PASS}
        for opcode in Opcode:
            kind = OPCODE_INFO[opcode].kind
            assert opcode.is_branch is (kind in branch), opcode
            assert opcode.is_memory is (kind in memory), opcode
            assert opcode.writes_register is (kind not in no_result), opcode
            assert opcode.is_vector is (kind in vector), opcode
            assert opcode.reads_vector_length is (kind in vector), opcode


class TestUnitAssignments:
    @pytest.mark.parametrize(
        "opcode,unit",
        [
            (Opcode.AADD, FunctionalUnit.ADDRESS_ADD),
            (Opcode.ASUB, FunctionalUnit.ADDRESS_ADD),
            (Opcode.AMUL, FunctionalUnit.ADDRESS_MULTIPLY),
            (Opcode.FADD, FunctionalUnit.FP_ADD),
            (Opcode.FSUB, FunctionalUnit.FP_ADD),
            (Opcode.FMUL, FunctionalUnit.FP_MULTIPLY),
            (Opcode.FRECIP, FunctionalUnit.FP_RECIPROCAL),
            (Opcode.LOADS, FunctionalUnit.MEMORY),
            (Opcode.STOREA, FunctionalUnit.MEMORY),
            (Opcode.JAZ, FunctionalUnit.BRANCH),
            (Opcode.JMP, FunctionalUnit.BRANCH),
            (Opcode.AI, FunctionalUnit.TRANSFER),
            (Opcode.SAND, FunctionalUnit.SCALAR_LOGICAL),
            (Opcode.SSHR, FunctionalUnit.SCALAR_SHIFT),
            (Opcode.FIX, FunctionalUnit.SCALAR_SHIFT),
        ],
    )
    def test_unit(self, opcode, unit):
        assert opcode.unit is unit


class TestClassificationFlags:
    def test_branches(self):
        branches = {o for o in Opcode if o.is_branch}
        assert branches == {Opcode.JAZ, Opcode.JAN, Opcode.JAP, Opcode.JAM, Opcode.JMP}

    def test_memory_ops(self):
        memory = {o for o in Opcode if o.is_memory}
        assert memory == {Opcode.LOADS, Opcode.LOADA, Opcode.STORES, Opcode.STOREA}

    def test_writes_register(self):
        assert Opcode.FADD.writes_register
        assert Opcode.LOADS.writes_register
        assert not Opcode.STORES.writes_register
        assert not Opcode.JAN.writes_register
        assert not Opcode.PASS.writes_register

    def test_two_parcel_instructions(self):
        """Immediates, memory references and branches carry extra parcels."""
        for opcode in Opcode:
            if opcode.is_branch or opcode.kind in (
                OpKind.IMM_INT,
                OpKind.IMM_FLOAT,
                OpKind.LOAD,
                OpKind.STORE,
                OpKind.VECTOR_LOAD,
                OpKind.VECTOR_STORE,
            ):
                assert opcode.parcels == 2, opcode
            else:
                assert opcode.parcels == 1, opcode

    def test_source_counts(self):
        assert Opcode.FADD.info.n_srcs == 2
        assert Opcode.FRECIP.info.n_srcs == 1
        assert Opcode.LOADS.info.n_srcs == 2  # base + displacement
        assert Opcode.STORES.info.n_srcs == 3  # data + base + displacement
        assert Opcode.JMP.info.n_srcs == 0
        assert Opcode.JAN.info.n_srcs == 1  # A0
