"""Tests for the AP instruction set."""

import pytest

from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.errors import CompilationError


def region(column, width=4, offset=0):
    return ColumnRegion(column=column, width=width, domain_offset=offset)


class TestColumnRegion:
    def test_bit_position_within_width(self):
        r = region(3, width=4, offset=8)
        assert r.bit_position(0) == 8
        assert r.bit_position(3) == 11

    def test_bit_position_sign_extends(self):
        r = region(3, width=4, offset=8)
        assert r.bit_position(7) == 11  # clamped to the MSB

    def test_end_domain(self):
        assert region(0, width=5, offset=2).end_domain == 7

    def test_invalid_fields(self):
        with pytest.raises(CompilationError):
            ColumnRegion(column=-1, width=4)
        with pytest.raises(CompilationError):
            ColumnRegion(column=0, width=0)
        with pytest.raises(CompilationError):
            ColumnRegion(column=0, width=1, domain_offset=-1)
        with pytest.raises(CompilationError):
            region(0).bit_position(-1)


class TestAPOpcode:
    def test_arithmetic_classification(self):
        assert APOpcode.ADD_INPLACE.is_arithmetic
        assert APOpcode.SUB_OUTOFPLACE.is_arithmetic
        assert not APOpcode.COPY.is_arithmetic
        assert not APOpcode.CLEAR.is_arithmetic

    def test_inplace_classification(self):
        assert APOpcode.ADD_INPLACE.is_inplace
        assert not APOpcode.ADD_OUTOFPLACE.is_inplace

    def test_lut_kind(self):
        assert APOpcode.ADD_INPLACE.lut_kind == "add"
        assert APOpcode.SUB_OUTOFPLACE.lut_kind == "sub"
        assert APOpcode.COPY.lut_kind is None


class TestAPInstructionValidation:
    def test_arithmetic_requires_two_sources(self):
        with pytest.raises(CompilationError):
            APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=region(3), src_a=region(1))

    def test_inplace_add_dest_must_be_a_source(self):
        with pytest.raises(CompilationError):
            APInstruction(
                opcode=APOpcode.ADD_INPLACE,
                dest=region(3),
                src_a=region(1),
                src_b=region(2),
            )

    def test_inplace_sub_dest_must_be_minuend(self):
        with pytest.raises(CompilationError):
            APInstruction(
                opcode=APOpcode.SUB_INPLACE,
                dest=region(1),
                src_a=region(1),
                src_b=region(2),
            )
        # correct form: dest == src_b
        APInstruction(
            opcode=APOpcode.SUB_INPLACE,
            dest=region(2),
            src_a=region(1),
            src_b=region(2),
        )

    def test_dest_may_be_narrower_than_source_regions(self):
        """Source regions describe allocated storage, which may exceed the
        execution width; the instruction is structurally valid."""
        instr = APInstruction(
            opcode=APOpcode.ADD_OUTOFPLACE,
            dest=region(3, width=3),
            src_a=region(1, width=4),
            src_b=region(2, width=4),
        )
        assert instr.width == 3

    def test_extra_dests_only_out_of_place(self):
        with pytest.raises(CompilationError):
            APInstruction(
                opcode=APOpcode.ADD_INPLACE,
                dest=region(2),
                src_a=region(1),
                src_b=region(2),
                extra_dests=(region(5),),
            )

    def test_copy_requires_source(self):
        with pytest.raises(CompilationError):
            APInstruction(opcode=APOpcode.COPY, dest=region(2))

    def test_width_is_dest_width(self):
        instr = APInstruction(
            opcode=APOpcode.ADD_OUTOFPLACE,
            dest=region(3, width=7),
            src_a=region(1, width=4),
            src_b=region(2, width=5),
        )
        assert instr.width == 7
        assert instr.all_dests == (region(3, width=7),)

    def test_str_rendering(self):
        instr = APInstruction(
            opcode=APOpcode.SUB_OUTOFPLACE,
            dest=region(3, width=6),
            src_a=region(1, width=4),
            src_b=region(2, width=4),
            comment="demo",
        )
        text = str(instr)
        assert "sub_outofplace" in text
        assert "demo" in text


class TestAPProgram:
    def _add(self, dest, a, b, inplace=False):
        opcode = APOpcode.ADD_INPLACE if inplace else APOpcode.ADD_OUTOFPLACE
        return APInstruction(opcode=opcode, dest=dest, src_a=a, src_b=b)

    def test_counters(self):
        program = APProgram(name="p")
        program.append(self._add(region(3), region(1), region(2)))
        program.append(self._add(region(2), region(1), region(2), inplace=True))
        program.append(APInstruction(opcode=APOpcode.CLEAR, dest=region(4)))
        assert len(program) == 3
        assert program.num_arithmetic_ops == 2
        assert program.num_inplace_ops == 1
        assert program.num_outofplace_ops == 1

    def test_histogram_and_columns(self):
        program = APProgram()
        program.append(self._add(region(7, width=5, offset=10), region(1), region(2)))
        histogram = program.opcode_histogram()
        assert histogram == {"add_outofplace": 1}
        assert program.max_column_used == 7
        assert program.max_domain_used == 15

    def test_max_column_used_counts_passthrough_io(self):
        """An output that passes an input through still occupies its column."""
        program = APProgram(name="passthrough")
        program.append(self._add(region(3), region(1), region(2)))
        program.input_columns = {"a": region(1), "b": region(2), "c": region(5)}
        program.output_columns = {"y": region(3), "z": region(5)}
        assert program.max_column_used == 5

    def test_listing_contains_instructions(self):
        program = APProgram(name="demo")
        program.append(self._add(region(3), region(1), region(2)))
        listing = program.listing()
        assert "demo" in listing
        assert "add_outofplace" in listing

    def test_extend_and_iter(self):
        program = APProgram()
        instrs = [self._add(region(3), region(1), region(2)) for _ in range(3)]
        program.extend(instrs)
        assert list(program) == instrs
