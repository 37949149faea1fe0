"""NumPy execution backend: word-parallel x bit-parallel with analytic stats.

The reference interpreter walks every instruction bit-serially and replays
every Table-I LUT pass as a masked search plus a tagged write.  That is the
hardware's algorithm, but in Python it costs ``width x passes`` vector
operations per instruction.  This backend computes the same results in a
handful of whole-operand NumPy operations and then *charges the exact same
events* the interpreter would have counted:

* **Results** - operands are read as sign-extended integers and combined with
  ordinary two's-complement arithmetic; the carry/borrow chain of every row
  falls out of the identity ``carries = A ^ B ^ (A op B)``.
* **Event accounting** - search phases/bits are data-independent.  Write
  phases and written bits depend on which rows match each LUT pass, so the
  backend bins every row's per-bit ``(carry, B, A)`` state into an 8-bin
  histogram and multiplies it with a precomputed *truth tensor*: an
  ``8 x passes`` 0/1 matrix recording, for each initial state, which passes
  of the LUT fire as the row's state evolves through the pass sequence.  One
  matrix product then yields the exact per-(bit, pass) match counts - the
  same numbers the interpreter observes row by row.
* **Shifts** - within one bit position every involved column is aligned to
  a single target that advances monotonically with the bit position, so one
  :meth:`~repro.cam.array.CAMArray.align_run` per column (a pure accounting
  operation) reproduces the lockstep/track shift counters and the final
  port positions exactly.

Degenerate operand layouts that the compiler never emits (operands on the
carry column, destinations aliasing sources, >60-bit words) are delegated to
an embedded :class:`~repro.ap.backends.reference.ReferenceBackend`, which is
equivalent by construction.  On an error raised mid-instruction the partial
event counts may differ from the interpreter's; all successfully executed
instructions produce byte-identical state and counters.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ap.backends.base import ExecutionBackend
from repro.ap.backends.reference import ReferenceBackend
from repro.ap.isa import APInstruction, APOpcode, ColumnRegion
from repro.ap.lut import get_lut, reference_bit_op
from repro.cam.array import CAMArray
from repro.errors import SimulationError
from repro.utils.bitops import pack_bits_int64

#: Operand widths above this fall back to the interpreter (int64 headroom).
_MAX_VECTOR_WIDTH = 60

#: Cache of per-LUT truth tensors, keyed by ``(kind, inplace)``.
_TRUTH_CACHE: Dict[Tuple[str, bool], np.ndarray] = {}

#: Immutable LUT instances shared across instructions (keyed like the cache).
_LUT_CACHE: Dict[Tuple[str, bool], object] = {}

#: Cached ``np.arange`` shift vectors per width (int64).
_SHIFT_CACHE: Dict[int, np.ndarray] = {}


def _bit_shifts(width: int) -> np.ndarray:
    """The cached ``[0, 1, ..., width-1]`` int64 shift vector."""
    shifts = _SHIFT_CACHE.get(width)
    if shifts is None:
        shifts = _SHIFT_CACHE[width] = np.arange(width, dtype=np.int64)
    return shifts


def _cached_lut(kind: str, inplace: bool):
    key = (kind, bool(inplace))
    lut = _LUT_CACHE.get(key)
    if lut is None:
        lut = _LUT_CACHE[key] = get_lut(kind, inplace)
    return lut


def lut_truth_matrix(kind: str, inplace: bool) -> np.ndarray:
    """The ``8 x passes`` truth tensor of one Table-I LUT.

    Row ``state`` (encoded ``carry*4 + b*2 + a``) marks which passes of the
    LUT match a row that *starts* the bit position in that state, accounting
    for the in-pass evolution of the carry (and, for in-place tables, the B
    bit).  The construction also cross-checks the LUT's final state against
    the golden 1-bit reference, so an incorrectly ordered table is rejected
    here rather than silently miscounted.
    """
    key = (kind, bool(inplace))
    cached = _TRUTH_CACHE.get(key)
    if cached is not None:
        return cached
    lut = get_lut(kind, inplace)
    matrix = np.zeros((8, len(lut.entries)), dtype=np.int64)
    for state in range(8):
        carry, b, a = (state >> 2) & 1, (state >> 1) & 1, state & 1
        state_carry, state_b, state_r = carry, b, 0
        for index, entry in enumerate(lut.entries):
            if (state_carry, state_b, a) == entry.search:
                matrix[state, index] = 1
                if lut.inplace:
                    state_carry, state_b = entry.write
                else:
                    state_carry, state_r = entry.write
        result = state_b if lut.inplace else state_r
        expected_result, expected_carry = reference_bit_op(kind, a, b, carry)
        if (result, state_carry) != (expected_result, expected_carry):
            raise SimulationError(
                f"LUT {lut.name} disagrees with the golden reference for "
                f"(carry={carry}, b={b}, a={a}); cannot vectorize"
            )
    _TRUTH_CACHE[key] = matrix
    return matrix


class VectorizedBackend(ExecutionBackend):
    """Word-parallel NumPy backend with byte-identical event accounting."""

    name = "vectorized"

    def __init__(self, array: CAMArray, carry_column: int) -> None:
        super().__init__(array, carry_column)
        self._fallback = ReferenceBackend(array, carry_column)

    # ------------------------------------------------------------------
    def execute(self, instruction: APInstruction, active_rows: int) -> None:
        """Execute a single instruction on the current CAM contents."""
        opcode = instruction.opcode
        if opcode.is_arithmetic:
            self._execute_arithmetic(instruction, active_rows)
        elif opcode is APOpcode.COPY:
            self._execute_copy(instruction, active_rows)
        elif opcode is APOpcode.CLEAR:
            self._execute_clear(instruction, active_rows)
        else:  # pragma: no cover - defensive, enum is closed
            raise SimulationError(f"unsupported opcode {opcode!r}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _read_signed(self, region: ColumnRegion, active_rows: int) -> np.ndarray:
        """Sign-extended int64 value of a region per active row (no events)."""
        bits = self.array.peek_operand_bits(
            region.column, region.width, region.domain_offset, num_rows=active_rows
        )
        return pack_bits_int64(bits)

    def _read_planes(
        self, region: ColumnRegion, width: int, active_rows: int
    ) -> np.ndarray:
        """Region bit planes sign-extended to ``width`` bits (no events)."""
        bits = self.array.peek_operand_bits(
            region.column, region.width, region.domain_offset, num_rows=active_rows
        )
        if width <= region.width:
            return np.ascontiguousarray(bits[:, :width])
        # Clamped gather: logical bit positions beyond the region replay its
        # MSB, exactly like ColumnRegion.bit_position does for the hardware.
        columns = np.minimum(_bit_shifts(width), region.width - 1)
        return bits[:, columns]

    def _clear_carry(self, active_rows: int) -> None:
        """Analytic equivalent of the interpreter's carry-clearing write."""
        self.array.align(self.carry_column, 0)
        self.array.stats.write_phases += 1
        self.array.stats.written_bits += active_rows
        self.array.poke_operand_bits(
            self.carry_column, np.zeros((active_rows, 1), dtype=np.uint8), 0
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _arithmetic_needs_fallback(
        self, instruction: APInstruction, src_a: ColumnRegion, src_b: ColumnRegion
    ) -> bool:
        dest_columns = [d.column for d in instruction.all_dests]
        involved = [src_a.column, src_b.column] + dest_columns
        involved_regions = [src_a, src_b] + list(instruction.all_dests)
        return (
            self.carry_column in involved
            or len(set(dest_columns)) != len(dest_columns)
            or any(d in (src_a.column, src_b.column) for d in dest_columns[1:])
            or instruction.width > _MAX_VECTOR_WIDTH
            or any(r.width > _MAX_VECTOR_WIDTH for r in involved_regions)
        )

    def _execute_arithmetic(self, instruction: APInstruction, active_rows: int) -> None:
        src_a, src_b = self._prepare_arithmetic(instruction)
        if self._arithmetic_needs_fallback(instruction, src_a, src_b):
            self._fallback.execute(instruction, active_rows)
            return

        dest = instruction.dest
        opcode = instruction.opcode
        width = instruction.width
        extras = instruction.extra_dests
        array = self.array
        stats = array.stats

        if not opcode.is_inplace:
            array.clear_operand(dest.column, dest.width, dest.domain_offset)
            for extra in extras:
                array.clear_operand(extra.column, extra.width, extra.domain_offset)

        lut = _cached_lut(opcode.lut_kind, opcode.is_inplace)
        truth = lut_truth_matrix(opcode.lut_kind, opcode.is_inplace)
        num_passes = len(lut.entries)
        self._clear_carry(active_rows)

        # ------------------------------------------------------------------
        # Word-parallel result and carry/borrow chain.  The operands' bit
        # planes come straight out of the stored uint8 state; a clamped
        # gather reproduces the controller's MSB re-alignment (sign
        # extension) for sources narrower than the instruction width.
        # ------------------------------------------------------------------
        a_planes = self._read_planes(src_a, width, active_rows)
        b_planes = self._read_planes(src_b, width, active_rows)
        a_values = pack_bits_int64(a_planes)
        b_values = pack_bits_int64(b_planes)
        if opcode.lut_kind == "add":
            results = a_values + b_values
        else:
            results = b_values - a_values
        # carries[k] (bit k) is the carry/borrow INTO bit position k.
        carries = a_values ^ b_values ^ results

        # ------------------------------------------------------------------
        # Exact event accounting via the per-LUT truth tensor.
        # ------------------------------------------------------------------
        shifts = _bit_shifts(width)
        states = ((carries[:, None] >> shifts) & 1).astype(np.uint8)
        states <<= 1
        states |= b_planes
        states <<= 1
        states |= a_planes
        histogram = np.bincount(
            (states.astype(np.int64) + 8 * shifts).ravel(), minlength=8 * width
        ).reshape(width, 8)
        match_counts = histogram @ truth  # (width, passes) matching active rows
        fired = match_counts > 0

        stats.search_phases += width * num_passes
        stats.searched_bits += width * num_passes * 3 * array.rows
        stats.write_phases += int(fired.sum())
        written_columns = 2 if opcode.is_inplace else 2 + len(extras)
        stats.written_bits += int(match_counts.sum()) * written_columns

        # Shift accounting: within one bit position every involved column is
        # aligned to a single target (the carry port is already at 0 after
        # the carry-clearing write), and those targets advance monotonically
        # with the bit position, so one align_run per column reproduces the
        # interpreter's step counts and final port positions.
        array.align_run(src_b.column, src_b.bit_position(0), src_b.bit_position(width - 1))
        array.align_run(src_a.column, src_a.bit_position(0), src_a.bit_position(width - 1))
        if not opcode.is_inplace:
            write_bits = np.flatnonzero(fired.any(axis=1))
            if write_bits.size:
                first, last = int(write_bits[0]), int(write_bits[-1])
                array.align_run(
                    dest.column, dest.domain_offset + first, dest.domain_offset + last
                )
                for extra in extras:
                    array.align_run(
                        extra.column,
                        extra.domain_offset + first,
                        extra.domain_offset + last,
                    )

        # ------------------------------------------------------------------
        # Commit the result state (active rows only; the rest is untouched).
        # ------------------------------------------------------------------
        result_region = src_b if opcode.is_inplace else dest
        result_planes = ((results[:, None] >> shifts) & 1).astype(np.uint8)
        array.poke_operand_bits(
            result_region.column, result_planes, result_region.domain_offset
        )
        if extras:
            fired_by_state = truth.any(axis=1)  # (8,) per initial state
            for extra in extras:
                if extra.width >= width:
                    array.poke_operand_bits(
                        extra.column, result_planes, extra.domain_offset
                    )
                else:
                    # Only extra.width bits were pre-zeroed: above them, bit
                    # positions of rows whose state fires no pass keep their
                    # stale contents, exactly as the interpreter leaves them.
                    old = self.array.peek_operand_bits(
                        extra.column, width, extra.domain_offset, num_rows=active_rows
                    )
                    array.poke_operand_bits(
                        extra.column,
                        np.where(fired_by_state[states], result_planes, old),
                        extra.domain_offset,
                    )
        carry_out = ((carries >> np.int64(width)) & 1).astype(np.uint8)
        array.poke_operand_bits(self.carry_column, carry_out[:, None], 0)

    # ------------------------------------------------------------------
    # Copy
    # ------------------------------------------------------------------
    def _execute_copy(self, instruction: APInstruction, active_rows: int) -> None:
        src = instruction.src_a
        assert src is not None
        dests = instruction.all_dests
        width = instruction.width
        dest_columns = [d.column for d in dests]
        if (
            src.column in dest_columns
            or len(set(dest_columns)) != len(dest_columns)
            or width > _MAX_VECTOR_WIDTH
            or src.width > _MAX_VECTOR_WIDTH
        ):
            self._fallback.execute(instruction, active_rows)
            return

        array = self.array
        stats = array.stats
        values = self._read_signed(src, active_rows)
        bits = ((values[:, None] >> _bit_shifts(width)) & 1).astype(np.uint8)
        ones = bits.sum(axis=0, dtype=np.int64)  # per bit, among active rows
        zeros = active_rows - ones

        stats.search_phases += 2 * width
        stats.searched_bits += 2 * width * array.rows
        stats.write_phases += int((ones > 0).sum() + (zeros > 0).sum())
        stats.written_bits += width * active_rows * len(dests)

        array.align_run(src.column, src.bit_position(0), src.bit_position(width - 1))
        if active_rows:
            for dest in dests:
                array.align_run(
                    dest.column, dest.domain_offset, dest.domain_offset + width - 1
                )

        for dest in dests:
            self.array.poke_operand_bits(dest.column, bits, dest.domain_offset)

    # ------------------------------------------------------------------
    # Clear
    # ------------------------------------------------------------------
    def _execute_clear(self, instruction: APInstruction, active_rows: int) -> None:
        array = self.array
        stats = array.stats
        for dest in instruction.all_dests:
            array.align_run(
                dest.column, dest.domain_offset, dest.domain_offset + dest.width - 1
            )
            stats.write_phases += dest.width
            stats.written_bits += dest.width * active_rows
            array.poke_operand_bits(
                dest.column,
                np.zeros((active_rows, dest.width), dtype=np.uint8),
                dest.domain_offset,
            )
