"""Functional tests of the associative processor (bit-exact arithmetic)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ap.core import AssociativeProcessor
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.errors import CapacityError, CompilationError, SimulationError


def make_ap(rows=16, columns=16):
    return AssociativeProcessor(rows=rows, columns=columns)


class TestVectorArithmetic:
    @pytest.mark.parametrize("inplace", [False, True])
    def test_add_matches_numpy(self, rng, inplace):
        ap = make_ap()
        a = rng.integers(-50, 50, 16)
        b = rng.integers(-50, 50, 16)
        result = ap.add_vectors(a, b, width=8, inplace=inplace)
        assert np.array_equal(result, a + b)

    @pytest.mark.parametrize("inplace", [False, True])
    def test_sub_matches_numpy(self, rng, inplace):
        ap = make_ap()
        a = rng.integers(-50, 50, 16)
        b = rng.integers(-50, 50, 16)
        result = ap.sub_vectors(a, b, width=8, inplace=inplace)
        assert np.array_equal(result, a - b)

    def test_unsigned_inputs(self):
        ap = make_ap()
        a = np.arange(16)
        b = np.arange(16)[::-1].copy()
        assert np.array_equal(ap.add_vectors(a, b, width=6), a + b)

    def test_mismatched_lengths_rejected(self):
        ap = make_ap()
        with pytest.raises(SimulationError):
            ap.add_vectors([1, 2, 3], [1, 2], width=4)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.integers(min_value=-100, max_value=100),
                st.integers(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=8,
        ),
        inplace=st.booleans(),
        kind=st.sampled_from(["add", "sub"]),
    )
    def test_property_bit_exact(self, values, inplace, kind):
        """The AP's bit-serial LUT arithmetic equals two's-complement integer math."""
        a = np.array([v[0] for v in values])
        b = np.array([v[1] for v in values])
        ap = make_ap(rows=8, columns=8)
        if kind == "add":
            result = ap.add_vectors(a, b, width=9, inplace=inplace)
            assert np.array_equal(result, a + b)
        else:
            result = ap.sub_vectors(a, b, width=9, inplace=inplace)
            assert np.array_equal(result, a - b)


class TestSignExtension:
    def test_narrow_source_sign_extended(self):
        """A 4-bit negative source consumed by an 8-bit add must sign-extend."""
        ap = make_ap()
        narrow = ColumnRegion(column=1, width=4)
        wide = ColumnRegion(column=2, width=8)
        dest = ColumnRegion(column=3, width=8)
        program = APProgram(name="signext")
        program.input_columns = {"narrow": narrow, "wide": wide}
        program.output_columns = {"out": dest}
        program.append(
            APInstruction(
                opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=narrow, src_b=wide
            )
        )
        narrow_values = [-8, -1, 3, 7]
        wide_values = [100, -100, 50, -50]
        outputs = ap.run_program(
            program, {"narrow": narrow_values, "wide": wide_values}
        )
        assert list(outputs["out"]) == [92, -101, 53, -43]


class TestProgramExecution:
    def _single_add_program(self, negate=False):
        a = ColumnRegion(column=1, width=5)
        b = ColumnRegion(column=2, width=5)
        dest = ColumnRegion(column=3, width=6)
        program = APProgram(name="single")
        program.input_columns = {"a": a, "b": b}
        program.output_columns = {"y": dest}
        program.output_negated = {"y": negate}
        program.append(
            APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b)
        )
        return program

    def test_negated_output_flag(self):
        ap = make_ap()
        program = self._single_add_program(negate=True)
        outputs = ap.run_program(program, {"a": [3, 4], "b": [5, 6]})
        assert list(outputs["y"]) == [-8, -10]

    def test_missing_input_rejected(self):
        ap = make_ap()
        program = self._single_add_program()
        with pytest.raises(SimulationError):
            ap.run_program(program, {"a": [1, 2]})

    def test_wrong_length_input_rejected(self):
        ap = make_ap()
        program = self._single_add_program()
        with pytest.raises(SimulationError):
            ap.run_program(program, {"a": [1, 2], "b": [1]})

    def test_too_many_rows_rejected(self):
        ap = make_ap(rows=4)
        program = self._single_add_program()
        with pytest.raises(CapacityError):
            ap.run_program(program, {"a": [1] * 5, "b": [2] * 5})

    def test_partial_rows_leave_rest_untouched(self):
        ap = make_ap(rows=8)
        program = self._single_add_program()
        outputs = ap.run_program(program, {"a": [1, 2, 3], "b": [4, 5, 6]})
        assert list(outputs["y"]) == [5, 7, 9]
        assert len(outputs["y"]) == 3

    def test_empty_inputs_rejected(self):
        ap = make_ap()
        program = self._single_add_program()
        with pytest.raises(SimulationError):
            ap.run_program(program, {})

    def test_stats_accumulate(self):
        ap = make_ap()
        program = self._single_add_program()
        ap.run_program(program, {"a": [1, 2], "b": [3, 4]})
        stats = ap.stats
        assert stats.search_phases > 0
        assert stats.write_phases > 0
        assert stats.loaded_bits == 2 * 5 * 2


class TestCopyAndClear:
    def test_copy_instruction(self):
        ap = make_ap()
        src = ColumnRegion(column=1, width=5)
        dst = ColumnRegion(column=2, width=5)
        program = APProgram(name="copy")
        program.input_columns = {"src": src}
        program.output_columns = {"dst": dst}
        program.append(APInstruction(opcode=APOpcode.COPY, dest=dst, src_a=src))
        outputs = ap.run_program(program, {"src": [-7, 0, 9]})
        assert list(outputs["dst"]) == [-7, 0, 9]

    def test_clear_instruction(self):
        ap = make_ap()
        src = ColumnRegion(column=1, width=4)
        program = APProgram(name="clear")
        program.input_columns = {"src": src}
        program.output_columns = {"src": src}
        program.append(APInstruction(opcode=APOpcode.CLEAR, dest=src))
        outputs = ap.run_program(program, {"src": [3, -2, 5]})
        assert list(outputs["src"]) == [0, 0, 0]


class TestErrorCases:
    def test_same_source_columns_rejected(self):
        ap = make_ap()
        a = ColumnRegion(column=1, width=4)
        dest = ColumnRegion(column=3, width=5)
        instruction = APInstruction(
            opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=a
        )
        with pytest.raises(CompilationError):
            ap.execute(instruction)

    def test_out_of_place_dest_overlapping_source_rejected(self):
        ap = make_ap()
        a = ColumnRegion(column=1, width=4)
        b = ColumnRegion(column=2, width=4)
        dest = ColumnRegion(column=2, width=5)
        instruction = APInstruction(
            opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b
        )
        with pytest.raises(CompilationError):
            ap.execute(instruction)

    def test_invalid_carry_column(self):
        with pytest.raises(CapacityError):
            AssociativeProcessor(rows=4, columns=4, carry_column=10)


class TestMultiDestination:
    def test_out_of_place_add_with_extra_destination(self):
        """Multi-destination writes give a free copy of the result (Sec. IV-C)."""
        ap = make_ap()
        a = ColumnRegion(column=1, width=5)
        b = ColumnRegion(column=2, width=5)
        dest = ColumnRegion(column=3, width=6)
        extra = ColumnRegion(column=4, width=6)
        program = APProgram(name="multidest")
        program.input_columns = {"a": a, "b": b}
        program.output_columns = {"y": dest, "y_copy": extra}
        program.append(
            APInstruction(
                opcode=APOpcode.ADD_OUTOFPLACE,
                dest=dest,
                src_a=a,
                src_b=b,
                extra_dests=(extra,),
            )
        )
        outputs = ap.run_program(program, {"a": [3, -4, 10], "b": [8, 2, -15]})
        assert list(outputs["y"]) == [11, -2, -5]
        assert list(outputs["y_copy"]) == [11, -2, -5]


class TestReset:
    """A reset AP is indistinguishable from a fresh one.

    ``ExecutionBackend.execute_instances`` relies on this: it runs every
    instance of a wave on one AP, resetting it in between.
    """

    def test_reset_wipes_state_and_counters(self):
        ap = AssociativeProcessor(rows=16, columns=8)
        ap.add_vectors([1] * 16, [2] * 16, width=4)
        assert ap.stats.search_phases > 0
        ap.array.reset()
        assert ap.stats.search_phases == 0
        assert not ap.array._bits.any()
        assert not ap.array._port_positions.any()

    def test_reset_ap_matches_fresh_ap_counters(self):
        reused = AssociativeProcessor(rows=12, columns=8)
        reused.sub_vectors(list(range(12)), [3] * 12, width=6)
        reused.array.reset()
        fresh = AssociativeProcessor(rows=12, columns=8)
        a, b = list(range(12)), list(range(12, 0, -1))
        assert np.array_equal(
            reused.add_vectors(a, b, width=6), fresh.add_vectors(a, b, width=6)
        )
        assert reused.stats == fresh.stats
