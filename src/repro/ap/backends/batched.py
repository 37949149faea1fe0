"""Mega-kernel batched backend: a whole layer's (images x tiles) wave runs
each program as a few level-fused NumPy steps over a word register file.

The :class:`~repro.ap.backends.vectorized.VectorizedBackend` removed the
per-*bit* interpretation cost but still executes one ``(image, tile)`` AP at a
time, so a layer of ``N`` images times ``T`` row tiles pays ``N x T`` Python
instruction loops.  Those instances are perfectly homogeneous: every row tile
of one channel group shares the *same* compiled slice programs, only the
activation rows differ.  This module evaluates the shared programs once for
the whole wave, and it follows the two facts the paper's compiler is built
on (Sec. IV):

* **Word register file.**  A racetrack nanowire holds 64 domains, so one CAM
  cell (one column of one row) is exactly one machine word whose bit ``d``
  is domain ``d``.  The wave state is ``state[column, instance, row]``, so
  the operands of many instructions gather as one contiguous
  ``(K, instances, rows)`` block.  64 bits always suffice; a wave uses the
  narrowest of 8/16/32/64 bits that holds every domain its programs touch
  and every carry-out bit.  One extra, never-written column reads as zero
  and stands in for absent operands.
* **Level fusion.**  Each ternary convolution compiles to a CSE'd adder DAG,
  so most instructions of a program are independent.  At lowering time each
  program is grouped into hazard-free *levels* by column-level RAW and WAW
  hazards.  A WAR hazard may share a level, because every operand of a level
  is gathered before anything is scattered.  The carry column is local to
  each arithmetic op (every op clears it first and no op reads it as an
  operand), so it adds no hazard between arithmetic ops.  Only the last
  arithmetic op before a *carry consumer* writes its carry-out: a COPY or
  CLEAR that touches the carry column, or the end of the program (a later
  program or an output may read it).
  A level then runs as one masked gather -> compute -> scatter, with the
  per-op widths, offsets, sign extension and add/sub signs held as
  ``(K, 1, 1)`` arrays.  COPY runs as an add of a zero operand and CLEAR as
  a masked zero write, so all three opcodes share the level kernel.

Equivalence contract (same as every backend, see :mod:`repro.ap.backends.base`):

* **Results** - sources are sign-extended from their region (the clamped
  gather of the hardware), combined with two's complement arithmetic, and
  carries come from ``A ^ B ^ (A op B)``, like the vectorized backend.
* **CAMStats** are charged exactly without expanding bits.  Every Table-I
  LUT pass matches exactly one initial ``(carry, b, a)`` state (see
  :func:`~repro.ap.backends.vectorized.lut_truth_matrix`), so pass ``p`` has
  a *minterm word* ``(C ^ xc) & (B ^ xb) & (A ^ xa)`` (A and the masks cut
  to the op width): bit ``k`` is set in the rows that fire the pass at bit
  ``k``.  The written bits are the popcount of those words and the write
  phases the popcount of their row-wise OR (``np.bitwise_count``).  Search
  and load/read counters are data-independent per-program constants.
* **Port positions** are replayed once per wave (every instance starts as a
  fresh AP), in one vectorised pass over a column-sorted event table in
  program order.  The out-of-place destination alignment spans only the
  first..last fired bit: the lowest and highest set bit of the op's fired
  word, per instance.  The replay forward-fills the last effective port of
  each column, so the lockstep and track shift counters are those of the
  bit-serial hardware.

Operands arrive host-staged as :class:`~repro.ap.backends.base.StagedWaveInputs`:
each operand is one ``(instances, rows)`` integer batch or ``(instances,
rows, width)`` bit planes; both pack into the register file as words and
produce byte-identical results and counters.  Outputs are read back with
one gather per program over its distinct output regions, with sign
extension and negation as arrays and a name -> slot fan-out index.

The kernel :func:`execute_program_wave` is conservative: any program shape
the vectorized backend would route to its interpreter fallback (operands on
the carry column, aliasing destinations, >60-bit words), more than 64
domains per cell, or any malformed input batch declines (returns ``None``).
:meth:`BatchedBackend.execute_wave` - the backend's side of the device
contract - then falls back to the per-instance loop of
:class:`~repro.ap.backends.base.ExecutionBackend`, where the ordinary
semantics raise the proper errors.  :func:`wave_staging_plan` lets the host
pre-flight (and pre-lower, levels included) a tile's programs at deploy
time, so serving requests never pay the lowering cost and the host knows
the operand widths to stage.

:class:`BatchedBackend` subclasses the vectorized backend, so
``backend="batched"`` behaves identically to ``"vectorized"`` for ordinary
per-instruction execution (CLI, tests, ``REPRO_AP_BACKEND``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ap.backends.base import StagedWaveInputs, WaveResult
from repro.ap.backends.vectorized import (
    _MAX_VECTOR_WIDTH,
    VectorizedBackend,
    lut_truth_matrix,
)
from repro import telemetry
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.cam.stats import CAMStats
from repro.errors import SimulationError
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY, RTMTechnology
from repro.telemetry.logs import get_logger
from repro.utils.bitops import max_signed_value, min_signed_value

logger = get_logger(__name__)

#: Soft cap on the register file and temporaries of one wave chunk;
#: instances beyond it are processed in equivalence-preserving chunks
#: (instances are independent).
_MAX_WAVE_STATE_BYTES = 256 * 1024 * 1024

#: Bits per register word: one 64-domain nanowire per CAM cell.
_WORD_BITS = 64

#: Static per-opcode facts (enum property calls are too slow for the lowering
#: hot loop: a full-width resnet18 plan lowers ~500k instructions).
_OPCODE_META: Dict[APOpcode, Tuple[bool, bool, Optional[str]]] = {
    opcode: (opcode.is_arithmetic, opcode.is_inplace, opcode.lut_kind)
    for opcode in APOpcode
}

#: COPY as a LUT: one search for the 1s, one for the 0s of the source bit
#: (state codes ``carry*4 + b*2 + a`` with a zero B operand and no carry).
_COPY_STATES: Tuple[int, ...] = (1, 0)

#: Cached initial state of each pass, per (lut_kind, inplace).
_PASS_STATES: Dict[Tuple[str, bool], Tuple[int, ...]] = {}


def _pass_states(kind: str, inplace: bool) -> Tuple[int, ...]:
    """The one initial ``(carry, b, a)`` state each LUT pass matches.

    The minterm counters rely on every pass matching exactly one state and
    on distinct passes matching distinct states (so their minterm words are
    disjoint); a table that breaks either is rejected here.
    """
    key = (kind, inplace)
    states = _PASS_STATES.get(key)
    if states is None:
        truth = lut_truth_matrix(kind, inplace)
        if not (truth.sum(axis=0) == 1).all():
            raise SimulationError(
                f"LUT {kind}/{'in' if inplace else 'out-of'}-place has a pass "
                "matching several states; minterm counting needs one"
            )
        states = tuple(int(state) for state in truth.argmax(axis=0))
        if len(set(states)) != len(states):
            raise SimulationError(f"LUT {kind} repeats a pass state")
        _PASS_STATES[key] = states
    return states


def _field_mask(width: int, offset: int = 0) -> int:
    return ((1 << width) - 1) << offset


class BatchedBackend(VectorizedBackend):
    """Vectorized per-instruction semantics plus whole-layer wave execution."""

    name = "batched"
    supports_program_wave = True

    @classmethod
    def execute_wave(
        cls,
        programs: Sequence[APProgram],
        staged: StagedWaveInputs,
        rows: int,
        columns: int,
        technology: Optional[RTMTechnology] = None,
    ) -> List[WaveResult]:
        """The mega-kernel; a declined wave runs per instance instead."""
        results = execute_program_wave(
            programs, staged, rows, columns, technology=technology
        )
        if results is None:
            results = super().execute_wave(
                programs, staged, rows, columns, technology
            )
        return results


# ----------------------------------------------------------------------
# Wave lowering: APProgram -> hazard-free levels of packed op arrays
# ----------------------------------------------------------------------
class _Op:
    """One instruction in the uniform gather -> compute -> scatter form.

    ``a``/``b`` are ``(column, offset, width)`` sources (the zero column for
    absent ones); the result is ``B + sign * A``.  ``writes`` lists
    ``(column, offset, write_mask, clear_mask, narrow)`` result writes: the
    ``clear_mask`` bits are zeroed, the ``write_mask`` bits receive the
    result shifted to ``offset`` - only in fired rows when ``narrow`` (the
    stale-bit blend of a narrow extra destination).  ``events`` lists
    ``(column, first, last, fired_offset)`` port runs in hardware order;
    ``fired_offset >= 0`` marks a run over the fired bits only.
    """

    __slots__ = (
        "a",
        "b",
        "sub",
        "width",
        "states",
        "written_columns",
        "writes",
        "reads",
        "events",
        "arith",
        "search_phases",
        "searched_rows",
        "write_phases",
        "written_rows",
    )

    def __init__(self, zero: Tuple[int, int, int]) -> None:
        self.a = zero
        self.b = zero
        self.sub = False
        self.width = 1
        self.states: Tuple[int, ...] = ()
        self.written_columns = 0
        self.writes: List[Tuple[int, int, int, int, bool]] = []
        self.reads: Tuple[int, ...] = ()
        self.events: List[Tuple[int, int, int, int]] = []
        self.arith = False
        # Data-independent counters (``*_rows`` scale with the row count).
        self.search_phases = 0
        self.searched_rows = 0
        self.write_phases = 0
        self.written_rows = 0


def _source(region: ColumnRegion) -> Tuple[int, int, int]:
    return (region.column, region.domain_offset, region.width)


def _run(region: ColumnRegion, width: int) -> Tuple[int, int]:
    """First and last domain of a bit-serial walk over ``width`` bits."""
    return region.domain_offset, region.bit_position(width - 1)


def _lower_instruction(
    instruction: APInstruction,
    carry_column: int,
    columns: int,
    domains: int,
) -> Optional[_Op]:
    """Lower one instruction to an :class:`_Op`, or ``None`` if it needs the
    per-instance path (any vectorized-fallback shape or geometry the
    per-instance backends would reject with a proper error)."""
    zero = (columns, 0, 1)
    op = _Op(zero)
    is_arith, inplace, lut_kind = _OPCODE_META[instruction.opcode]
    width = op.width = instruction.width
    if width > _MAX_VECTOR_WIDTH and instruction.opcode is not APOpcode.CLEAR:
        return None
    if is_arith:
        src_a, src_b = instruction.src_a, instruction.src_b
        dest = instruction.dest
        if src_a is None or src_b is None:
            return None
        a_col, b_col = src_a.column, src_b.column
        if a_col == b_col:
            return None
        if lut_kind == "add" and inplace and dest == src_a:
            src_a, src_b = src_b, src_a
            a_col, b_col = b_col, a_col
        extra_dests = instruction.extra_dests
        if inplace and (dest != src_b or extra_dests):
            return None
        dest_col = dest.column
        if not inplace and (dest_col == a_col or dest_col == b_col):
            return None
        seen_columns = set()
        for index, region in enumerate(instruction.all_dests):
            column = region.column
            if (
                column == carry_column
                or column in seen_columns
                or (index > 0 and (column == a_col or column == b_col))
                or column >= columns
                or region.width > _MAX_VECTOR_WIDTH
                or region.domain_offset + region.width > domains
            ):
                return None
            seen_columns.add(column)
        if carry_column == a_col or carry_column == b_col:
            return None
        for region in (src_a, src_b):
            if (
                region.width > _MAX_VECTOR_WIDTH
                or region.column >= columns
                or region.domain_offset + region.width > domains
            ):
                return None
        # Narrow extra destinations are blended over ``width`` raw bits.
        for extra in extra_dests:
            if extra.domain_offset + width > domains:
                return None
        states = _pass_states(lut_kind, inplace)
        op.a, op.b = _source(src_a), _source(src_b)
        op.sub = lut_kind == "sub"
        op.states = states
        op.arith = True
        op.reads = (a_col, b_col)
        # Carry-clearing write: align to domain 0, one tagged write phase.
        op.events.append((carry_column, 0, 0, -1))
        op.events.append((b_col,) + _run(src_b, width) + (-1,))
        op.events.append((a_col,) + _run(src_a, width) + (-1,))
        op.search_phases = width * len(states)
        op.searched_rows = 3 * width * len(states)
        op.write_phases = 1
        op.written_rows = 1
        if inplace:
            op.written_columns = 2
            offset = src_b.domain_offset
            op.writes.append((b_col, offset, _field_mask(width, offset), 0, False))
        else:
            op.written_columns = 2 + len(extra_dests)
            for region in (dest,) + tuple(extra_dests):
                offset = region.domain_offset
                op.events.append((region.column, 0, width - 1, offset))
                op.writes.append(
                    (
                        region.column,
                        offset,
                        _field_mask(width, offset),
                        _field_mask(region.width, offset),
                        region.width < width,
                    )
                )
        return op
    if instruction.opcode is APOpcode.COPY:
        src = instruction.src_a
        if src is None or src.width > _MAX_VECTOR_WIDTH:
            return None
        if src.column >= columns or src.domain_offset + src.width > domains:
            return None
        dests = instruction.all_dests
        src_col = src.column
        seen_columns = set()
        # Every destination receives ``width`` bits at its own offset.
        for region in dests:
            column = region.column
            if (
                column == src_col
                or column in seen_columns
                or column >= columns
                or region.domain_offset + width > domains
            ):
                return None
            seen_columns.add(column)
        op.a = _source(src)
        op.states = _COPY_STATES
        op.written_columns = len(dests)
        op.reads = (src_col,)
        op.events.append((src_col,) + _run(src, width) + (-1,))
        op.search_phases = 2 * width
        op.searched_rows = 2 * width
        for region in dests:
            offset = region.domain_offset
            op.events.append((region.column, offset, offset + width - 1, -1))
            op.writes.append(
                (region.column, offset, _field_mask(width, offset), 0, False)
            )
        return op
    if instruction.opcode is APOpcode.CLEAR:
        cleared: Dict[int, int] = {}
        for region in instruction.all_dests:
            offset = region.domain_offset
            if region.column >= columns or offset + region.width > domains:
                return None
            op.events.append(
                (region.column, offset, offset + region.width - 1, -1)
            )
            op.write_phases += region.width
            op.written_rows += region.width
            cleared[region.column] = cleared.get(region.column, 0) | _field_mask(
                region.width, offset
            )
        op.writes = [(column, 0, 0, mask, False) for column, mask in cleared.items()]
        return op
    return None  # pragma: no cover - enum is closed


def _footprint(op: _Op) -> int:
    """Domains (plus the carry-out bit) one op touches in a register word."""
    bits = max(
        op.a[1] + op.a[2],
        op.b[1] + op.b[2],
        op.width + 1 if op.arith else 1,
    )
    for _, _, write_mask, clear_mask, _ in op.writes:
        bits = max(bits, (write_mask | clear_mask).bit_length())
    return bits


class _Word:
    """One register word type: ``bits`` wide, with unsigned and signed views."""

    __slots__ = ("bits", "dtype", "signed", "ones")

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.dtype = np.dtype(f"uint{bits}")
        self.signed = np.dtype(f"int{bits}")
        self.ones = (1 << bits) - 1


#: Register word types, narrowest first.  A nanowire holds at most 64
#: domains, so 64 bits always suffice; a wave uses the narrowest word that
#: holds every domain its programs touch (and every carry-out bit), so a
#: program on 9-bit operands moves a quarter of the bytes.
_WORDS = tuple(_Word(bits) for bits in (8, 16, 32, _WORD_BITS))


def _word_for(bits: int) -> _Word:
    return next(word for word in _WORDS if word.bits >= bits)


#: Most passes of any LUT (the out-of-place tables).
_MAX_PASSES = 5

_PassMasks = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: Cached minterm complement masks and pass weights per (states, width).
_PASS_MASKS: Dict[Tuple[Tuple[int, ...], int], _PassMasks] = {}


def _pass_masks(states: Tuple[int, ...], width: int) -> _PassMasks:
    """``(carry, b, a)`` complement masks per pass (flat, pass-major),
    pre-masked to ``width``, and the pass weights.

    Bit ``k`` of ``(C ^ xc) & (B ^ xb) & (A ^ xa)`` is set where bit ``k`` of
    a row is in the pass's state.  Ops with fewer passes repeat their first
    pass with weight 0; an op without passes (CLEAR) gets all-zero masks,
    which with its zero A operand makes every minterm vanish.
    """
    key = (states, width)
    entry = _PASS_MASKS.get(key)
    if entry is None:
        mask = _field_mask(width)
        masks: List[int] = []
        for p in range(_MAX_PASSES):
            state = states[p] if p < len(states) else (states[0] if states else 7)
            masks.extend(0 if (state >> shift) & 1 else mask for shift in (2, 1, 0))
        weights = tuple(int(p < len(states)) for p in range(_MAX_PASSES))
        entry = _PASS_MASKS[key] = (tuple(masks), weights)
    return entry


class _Level:
    """One hazard-free level of a program, packed for the fused kernel.

    Per-op arrays are ``(K, 1, 1)`` (``(K, P, 1, 1)`` for the pass minterm
    masks) so they broadcast over the ``(K, instances, rows)`` operand block;
    per-write arrays are ``(W, 1, 1)`` over the written columns, which are
    distinct within a level.  ``None`` marks a step the level skips: an
    all-zero shift, the pass weights when every op runs every pass, the
    fired-row selector without narrow writes, and the whole gather for a
    CLEAR-only level.
    """

    __slots__ = (
        "ops",
        "a_col",
        "a_off",
        "a_shl",
        "a_sar",
        "a_mask",
        "b_col",
        "b_off",
        "b_shl",
        "b_sar",
        "sign",
        "x_carry",
        "x_b",
        "x_a",
        "pass_weight",
        "written_columns",
        "w_col",
        "w_src",
        "w_off",
        "w_mask",
        "w_clear",
        "w_keep",
        "w_free",
        "carry_src",
        "carry_shift",
    )

    def __init__(
        self,
        ops: Sequence[_Op],
        indices: Sequence[int],
        carry_src: int,
        word: _Word,
    ) -> None:
        bits, dtype, ones = word.bits, word.dtype, word.ones
        self.ops = np.array(indices, dtype=np.intp)
        counts = [len(op.states) for op in ops]
        passes = max(counts)
        shifted = any(
            op.a[1] or op.b[1] or any(write[1] for write in op.writes) for op in ops
        )
        self.a_col: Optional[np.ndarray] = None
        if passes:
            columns = np.array([(op.a[0], op.b[0]) for op in ops], dtype=np.intp)
            self.a_col, self.b_col = columns[:, 0], columns[:, 1]
            # (a offset, a sign shift, a mask, b offset, b sign shift, sign)
            fields = np.array(
                [
                    (
                        op.a[1],
                        bits - op.a[2],
                        _field_mask(op.width) if op.states else 0,
                        op.b[1],
                        bits - op.b[2],
                        ones if op.sub else 1,
                    )
                    for op in ops
                ],
                dtype=dtype,
            ).reshape(-1, 6, 1, 1)
            signed = fields.view(word.signed)
            self.a_off = fields[:, 0] if shifted else None
            self.a_shl, self.a_sar = fields[:, 1], signed[:, 1]
            self.a_mask = fields[:, 2]
            self.b_off = fields[:, 3] if shifted else None
            self.b_shl, self.b_sar = fields[:, 4], signed[:, 4]
            self.sign = fields[:, 5]
            minterms = [_pass_masks(op.states, op.width) for op in ops]
            masks = np.array(
                [masks[: 3 * passes] for masks, _ in minterms], dtype=dtype
            ).reshape(-1, passes, 3, 1, 1)
            self.x_carry, self.x_b, self.x_a = (masks[:, :, bit] for bit in range(3))
            self.pass_weight = None
            if min(counts) < passes:
                self.pass_weight = np.array(
                    [weights[:passes] for _, weights in minterms], dtype=np.int64
                ).reshape(-1, passes, 1)
            self.written_columns = np.array(
                [op.written_columns for op in ops], dtype=np.int64
            ).reshape(-1, 1)
        writes = [(slot,) + write for slot, op in enumerate(ops) for write in op.writes]
        self.w_col = np.array([write[1] for write in writes], dtype=np.intp)
        self.w_src = np.array([write[0] for write in writes], dtype=np.intp)
        # (offset, write mask, clear mask, keep mask, fired-row selector)
        fields = np.array(
            [
                (
                    offset,
                    write_mask,
                    clear_mask,
                    ones ^ (write_mask | clear_mask),
                    0 if narrow else ones,
                )
                for _, _, offset, write_mask, clear_mask, narrow in writes
            ],
            dtype=dtype,
        ).reshape(-1, 5, 1, 1)
        self.w_off = fields[:, 0] if shifted else None
        self.w_mask, self.w_clear = fields[:, 1], fields[:, 2]
        self.w_keep = fields[:, 3]
        self.w_free = fields[:, 4] if any(write[5] for write in writes) else None
        self.carry_src = carry_src
        self.carry_shift = dtype.type(ops[carry_src].width if carry_src >= 0 else 0)


def _build_levels(
    ops: Sequence[_Op], carry_column: int
) -> Tuple[List[List[int]], List[int]]:
    """Group ops into hazard-free levels (ASAP by column hazards).

    RAW and WAW hazards on a column put the later op in a later level; a WAR
    hazard may share the level.  Returns the op indices per level (program
    order within a level) and the *carry survivors*: the last arithmetic op
    before each carry consumer (a COPY or CLEAR touching the carry column,
    and the program end), the only ops whose carry-out is written back.
    """
    survivors: List[int] = []
    last_arith = -1
    for index, op in enumerate(ops):
        if op.arith:
            last_arith = index
        elif carry_column in op.reads or any(
            write[0] == carry_column for write in op.writes
        ):
            if last_arith >= 0:
                survivors.append(last_arith)
                last_arith = -1
    if last_arith >= 0:
        survivors.append(last_arith)
    surviving = set(survivors)

    last_write: Dict[int, int] = {}
    last_read: Dict[int, int] = {}
    levels: List[List[int]] = []
    for index, op in enumerate(ops):
        written = [write[0] for write in op.writes]
        if index in surviving:
            written.append(carry_column)
        level = 0
        for column in op.reads:
            level = max(level, last_write.get(column, -1) + 1)
        for column in written:
            level = max(
                level, last_write.get(column, -1) + 1, last_read.get(column, 0)
            )
        for column in op.reads:
            if last_read.get(column, 0) < level:
                last_read[column] = level
        for column in written:
            last_write[column] = level
        if level == len(levels):
            levels.append([])
        levels[level].append(index)
    return levels, survivors


class _PortReplay:
    """Column-sorted port event table of one wave's program sequence.

    One segment per touched column: a seed row at domain 0 (every instance
    starts as a fresh AP), then the column's runs in program order.  A run
    over the fired bits takes its first/last domain from the op's fired
    word and is skipped (no shift, port unchanged) when nothing fired.
    """

    __slots__ = (
        "first",
        "last",
        "counted",
        "dyn_rows",
        "dyn_ops",
        "dyn_offsets",
        "smear",
    )

    def __init__(self, events: np.ndarray) -> None:
        # Stable sort by column keeps each column's runs in program order.
        events = events[np.argsort(events[:, 0], kind="stable")]
        _, starts, counts = np.unique(
            events[:, 0], return_index=True, return_counts=True
        )
        segments = np.arange(len(counts))
        rows = np.arange(len(events)) + np.repeat(segments, counts) + 1
        total = len(events) + len(counts)
        self.first = np.zeros(total, dtype=np.int64)
        self.last = np.zeros(total, dtype=np.int64)
        self.first[rows] = events[:, 1]
        self.last[rows] = events[:, 2]
        counted = np.ones(total, dtype=bool)
        counted[starts + segments] = False
        self.counted = counted[1:, None]
        fired_runs = events[:, 4] >= 0
        self.dyn_rows = rows[fired_runs]
        self.dyn_ops = events[fired_runs, 3]
        self.dyn_offsets = events[fired_runs, 4].reshape(-1, 1)
        # Fired runs hold ``width - 1`` as their last domain: smearing the
        # fired word over that many bits finds its highest set bit.
        widest = int(events[fired_runs, 2].max(initial=0)) + 1
        self.smear = [
            np.uint64(1 << step) for step in range(6) if (1 << step) < widest
        ]

    def replay(self, fired: np.ndarray) -> np.ndarray:
        """Lockstep shift steps per instance, given every op's fired word."""
        instances = fired.shape[1]
        if not self.dyn_rows.size:
            steps = np.abs(self.first[1:] - self.last[:-1])
            steps += self.last[1:] - self.first[1:]
            return np.full(instances, int(steps[self.counted[:, 0]].sum()))
        first = np.repeat(self.first[:, None], instances, axis=1)
        last = np.repeat(self.last[:, None], instances, axis=1)
        words = fired[self.dyn_ops]
        active = words != 0
        low = np.bitwise_count((words & (~words + np.uint64(1))) - np.uint64(1))
        smeared = words.copy()
        for shift in self.smear:
            smeared |= smeared >> shift
        high = np.bitwise_count(smeared).astype(np.int64) - 1
        first[self.dyn_rows] = low + self.dyn_offsets
        last[self.dyn_rows] = high + self.dyn_offsets
        # Skipped runs leave the port alone: forward-fill the index of the
        # last effective run (every segment starts with its seed).
        previous = np.repeat(
            np.arange(len(self.first), dtype=np.intp)[:, None], instances, axis=1
        )
        previous[self.dyn_rows] *= active
        np.maximum.accumulate(previous, axis=0, out=previous)
        before = np.take_along_axis(last, previous[:-1], axis=0)
        steps = np.abs(first[1:] - before)
        steps += last[1:]
        steps -= first[1:]
        counted = np.repeat(self.counted, instances, axis=1)
        counted[self.dyn_rows - 1] &= active
        return np.where(counted, steps, 0).sum(axis=0)


class _Kernel:
    """A lowered program's level, load and readout arrays for one word type."""

    __slots__ = (
        "word",
        "levels",
        "load_columns",
        "load_offsets",
        "load_shift",
        "load_keep",
        "read_columns",
        "read_offsets",
        "read_shl",
        "read_sar",
    )

    def __init__(self, lowered: "_CompiledWaveProgram", word: _Word) -> None:
        self.word = word
        dtype, bits, ones = word.dtype, word.bits, word.ones
        ops = lowered.ops
        surviving = set(lowered.survivors)
        self.levels = []
        for indices in lowered.levels:
            carry_src = -1
            for slot, index in enumerate(indices):
                if index in surviving:
                    carry_src = slot
            self.levels.append(
                _Level([ops[index] for index in indices], indices, carry_src, word)
            )
        # (offset, sign shift, keep mask) per load.
        loads = [region for _, region in lowered.loads]
        self.load_columns = np.array([region.column for region in loads], dtype=np.intp)
        fields = np.array(
            [
                (
                    region.domain_offset,
                    bits - region.width,
                    ones ^ _field_mask(region.width, region.domain_offset),
                )
                for region in loads
            ],
            dtype=dtype,
        ).reshape(-1, 3, 1, 1)
        shifted = any(region.domain_offset for region in loads)
        self.load_offsets = fields[:, 0] if shifted else None
        self.load_shift, self.load_keep = fields[:, 1], fields[:, 2]
        # (offset, sign shift) per distinct output region.
        regions = lowered.read_regions
        self.read_columns = np.array([region[0] for region in regions], dtype=np.intp)
        fields = np.array(
            [(offset, bits - width) for _, offset, width in regions], dtype=dtype
        ).reshape(-1, 2, 1, 1)
        shifted = any(region[1] for region in regions)
        self.read_offsets = fields[:, 0] if shifted else None
        self.read_shl = fields[:, 1]
        self.read_sar = fields.view(word.signed)[:, 1]


class _CompiledWaveProgram:
    """One program lowered to fused levels (valid for one geometry).

    ``loads`` keeps the input bindings (the host stages one batch per name);
    ``levels`` the op indices of each hazard-free level; ``events`` the
    port runs in program order (see :class:`_PortReplay`).  The readout
    gathers the distinct output regions once and fans them out to the output
    slots (names sorted) with a sign per slot.  :meth:`kernel` packs the
    arrays for one word type.
    """

    __slots__ = (
        "loads",
        "load_shared",
        "load_groups",
        "ops",
        "levels",
        "survivors",
        "events",
        "carry_column",
        "word_bits",
        "read_regions",
        "read_slots",
        "read_signs",
        "static",
        "_kernels",
    )

    def __init__(
        self,
        program: APProgram,
        ops: Sequence[_Op],
        levels: Sequence[Sequence[int]],
        survivors: Sequence[int],
    ) -> None:
        self.loads = tuple(program.input_columns.items())
        columns = [region.column for _, region in self.loads]
        #: Loads on distinct columns merge into one masked scatter.
        self.load_shared = len(set(columns)) < len(columns)
        #: Loads grouped by width: plane batches of one width pack together.
        groups: Dict[int, List[int]] = {}
        for index, (_, region) in enumerate(self.loads):
            groups.setdefault(region.width, []).append(index)
        self.load_groups = [
            (
                width,
                tuple(self.loads[index][0] for index in indices),
                np.array(indices, dtype=np.intp),
            )
            for width, indices in groups.items()
        ]
        self.ops = tuple(ops)
        self.levels = tuple(tuple(indices) for indices in levels)
        self.survivors = tuple(survivors)
        self.events = np.array(
            [
                (column, first, last, index, fired_offset)
                for index, op in enumerate(ops)
                for column, first, last, fired_offset in op.events
            ],
            dtype=np.int64,
        ).reshape(-1, 5)
        self.carry_column = program.carry_column

        # Distinct output regions, then a slot -> region index and a sign
        # per output name (names sorted).
        negated = program.output_negated
        regions: Dict[Tuple[int, int, int], int] = {}
        slots: List[int] = []
        signs: List[int] = []
        read_bits = 0
        for name, region in sorted(program.output_columns.items()):
            key = (region.column, region.domain_offset, region.width)
            slots.append(regions.setdefault(key, len(regions)))
            signs.append(-1 if negated.get(name, False) else 1)
            read_bits += key[2]
        self.read_regions = tuple(regions)
        self.read_slots = np.array(slots, dtype=np.intp)
        self.read_signs = np.array(signs, dtype=np.int64).reshape(-1, 1, 1)
        word_bits = max([1] + [offset + width for _, offset, width in regions])
        search_phases = searched = write_phases = written = loaded = 0
        for op in ops:
            search_phases += op.search_phases
            searched += op.searched_rows
            write_phases += op.write_phases
            written += op.written_rows
            word_bits = max(word_bits, _footprint(op))
        for _, region in self.loads:
            loaded += region.width
            word_bits = max(word_bits, region.domain_offset + region.width)
        self.word_bits = word_bits
        #: (search_phases, searched rows, write_phases, written rows,
        #: loaded rows, read rows): the data-independent counters, with the
        #: ``rows`` factor of the bit counters left out.
        self.static = (
            search_phases, searched, write_phases, written, loaded, read_bits
        )
        self._kernels: Dict[int, _Kernel] = {}
        self.kernel(_word_for(self.word_bits))

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def num_outputs(self) -> int:
        return int(self.read_slots.size)

    def kernel(self, word: _Word) -> _Kernel:
        """The packed arrays for ``word`` (memoised; deploy builds the
        narrowest, a wave of wider programs builds its own on first use)."""
        kernel = self._kernels.get(word.bits)
        if kernel is None:
            kernel = self._kernels[word.bits] = _Kernel(self, word)
        return kernel


def _region_fits(region: ColumnRegion, columns: int, domains: int) -> bool:
    return region.column < columns and region.domain_offset + region.width <= domains


def compile_program_wave(
    program: APProgram, columns: int, domains: int
) -> Optional[_CompiledWaveProgram]:
    """Lower ``program`` for wave execution on a ``columns x domains`` AP.

    Returns ``None`` when any instruction or operand binding needs the
    per-instance path.  Results are memoised on the program object (compiled
    slice programs are shared across tiles, images and requests, so the
    lowering cost is paid once per program per geometry).
    """
    cache = program.__dict__.get("_wave_compiled")
    if cache is None:
        cache = program.__dict__["_wave_compiled"] = {}
    key = (columns, domains)
    if key in cache:
        return cache[key]
    compiled = _compile_program_wave(program, columns, domains)
    cache[key] = compiled
    return compiled


def _compile_program_wave(
    program: APProgram, columns: int, domains: int
) -> Optional[_CompiledWaveProgram]:
    carry = program.carry_column
    if not (0 <= carry < columns) or not (1 <= domains <= _WORD_BITS):
        logger.debug(
            "wave lowering declined: carry/geometry (carry=%d columns=%d domains=%d)",
            carry, columns, domains,
        )
        return None
    bindings = list(program.input_columns.items()) + list(
        program.output_columns.items()
    )
    if not all(_region_fits(region, columns, domains) for _, region in bindings):
        logger.debug("wave lowering declined: operand binding outside geometry")
        return None
    ops: List[_Op] = []
    for instruction in program.instructions:
        op = _lower_instruction(instruction, carry, columns, domains)
        if op is None:
            logger.debug(
                "wave lowering declined: instruction %s needs per-instance path",
                instruction.opcode.name,
            )
            return None
        ops.append(op)
    levels, survivors = _build_levels(ops, carry)
    return _CompiledWaveProgram(program, ops, levels, survivors)


# ----------------------------------------------------------------------
# Host staging pre-flight
# ----------------------------------------------------------------------
def wave_staging_plan(
    programs: Sequence[APProgram],
    columns: int,
    technology: Optional[RTMTechnology] = None,
    carry_column: int = 0,
) -> Optional[Tuple[List[Dict[str, int]], Optional[int]]]:
    """Pre-flight one tile's programs for host-staged wave execution.

    Lowers every program for the wave geometry (memoised - calling this at
    deploy time moves the whole lowering cost, level building included, out
    of the serving window) and returns ``(load_widths, uniform_width)``: per
    program the operand name -> region width map the host must stage, plus
    the single shared width when every load agrees (the packed bit-plane
    fast path).  Returns ``None`` when any program would decline wave
    execution, so the caller can stage the layer for per-instance execution
    up front.
    """
    technology = technology or DEFAULT_RTM_TECHNOLOGY
    domains = technology.domains_per_nanowire
    if columns < 1:
        return None
    load_widths: List[Dict[str, int]] = []
    widths_seen: set = set()
    for program in programs:
        if program.carry_column != carry_column:
            return None
        lowered = compile_program_wave(program, columns, domains)
        if lowered is None:
            return None
        widths = {name: region.width for name, region in lowered.loads}
        widths_seen.update(widths.values())
        load_widths.append(widths)
    uniform = widths_seen.pop() if len(widths_seen) == 1 else None
    return load_widths, uniform


# ----------------------------------------------------------------------
# The mega-kernel: fused levels over a stacked word register file
# ----------------------------------------------------------------------
def _sign_extend(
    words: np.ndarray,
    offsets: Optional[np.ndarray],
    shl: np.ndarray,
    sar: np.ndarray,
    signed: np.dtype,
) -> np.ndarray:
    """Region fields of gathered words, sign-extended to the word in place.

    Bits above a region's width replay its MSB, exactly like
    :meth:`ColumnRegion.bit_position` for the hardware's clamped gather.
    """
    if offsets is not None:
        words >>= offsets
    words <<= shl
    view = words.view(signed)
    view >>= sar
    return words


def _planes_to_words(batches: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Stack ``(instances, rows, width)`` 0/1 plane batches as ``(n,
    instances, rows)`` unsigned words (one product with ``2**k``)."""
    dtype = _word_for(width).dtype
    planes = np.stack(batches).astype(dtype, copy=False)
    return planes @ (dtype.type(1) << np.arange(width, dtype=dtype))


def _load(
    state: np.ndarray,
    lowered: _CompiledWaveProgram,
    kernel: _Kernel,
    provided,
    planes: bool,
) -> None:
    """Place one program's staged operands into the register file."""
    if not lowered.loads:
        return
    words = np.empty((len(lowered.loads),) + state.shape[1:], dtype=state.dtype)
    if planes:
        for width, names, positions in lowered.load_groups:
            words[positions] = _planes_to_words(
                [provided[name] for name in names], width
            )
    else:
        for index, (name, _) in enumerate(lowered.loads):
            # Two's complement wrap; the field mask drops the sign copies.
            words[index] = provided[name]
    words <<= kernel.load_shift
    words >>= kernel.load_shift
    if kernel.load_offsets is not None:
        words <<= kernel.load_offsets
    if lowered.load_shared:
        for index, column in enumerate(kernel.load_columns.tolist()):
            state[column] &= kernel.load_keep[index]
            state[column] |= words[index]
        return
    block = state[kernel.load_columns]
    block &= kernel.load_keep
    block |= words
    state[kernel.load_columns] = block


def _run_level(
    state: np.ndarray,
    level: _Level,
    word: _Word,
    carry_column: int,
    counters: np.ndarray,
    fired: np.ndarray,
) -> None:
    """One level: gather every operand, compute, then scatter every write."""
    if level.a_col is None:
        block = state[level.w_col]
        block &= level.w_keep
        state[level.w_col] = block
        return
    a = _sign_extend(
        state[level.a_col], level.a_off, level.a_shl, level.a_sar, word.signed
    )
    a &= level.a_mask
    b = _sign_extend(
        state[level.b_col], level.b_off, level.b_shl, level.b_sar, word.signed
    )
    result = a * level.sign
    result += b
    carries = a ^ b
    carries ^= result

    # Pass minterms: bit k of M[k, p] is set in the rows that fire pass p at
    # bit k.  Distinct passes match distinct states, so the minterms of one
    # op are disjoint and their OR is the op's fired bits per row.
    minterms = carries[:, None] ^ level.x_carry
    term = b[:, None] ^ level.x_b
    minterms &= term
    np.bitwise_xor(a[:, None], level.x_a, out=term)
    minterms &= term
    any_row = np.bitwise_or.reduce(minterms, axis=3)  # (K, P, instances)
    phases = np.bitwise_count(any_row)
    if level.pass_weight is not None:
        phases = phases * level.pass_weight
    counters[0] += phases.sum(axis=(0, 1), dtype=np.int64)
    fired_rows = np.bitwise_or.reduce(minterms, axis=1)  # (K, instances, rows)
    counters[1] += (
        np.bitwise_count(fired_rows).sum(axis=2, dtype=np.int64)
        * level.written_columns
    ).sum(axis=0)
    fired[level.ops] = np.bitwise_or.reduce(any_row, axis=1)

    values = result[level.w_src]
    if level.w_off is not None:
        values <<= level.w_off
    values &= level.w_mask
    block = state[level.w_col]
    if level.w_free is None:
        block &= level.w_keep
    else:
        # Narrow extra destinations keep stale bits in unfired rows.
        overwritten = fired_rows[level.w_src]
        overwritten |= level.w_free
        if level.w_off is not None:
            overwritten <<= level.w_off
        overwritten &= level.w_mask
        overwritten |= level.w_clear
        block &= ~overwritten
    block |= values
    state[level.w_col] = block
    if level.carry_src >= 0:
        carry_out = carries[level.carry_src] >> level.carry_shift
        carry_out &= word.dtype.type(1)
        carry_word = state[carry_column]
        carry_word &= word.dtype.type(word.ones - 1)
        carry_word |= carry_out


def _read(
    state: np.ndarray,
    lowered: _CompiledWaveProgram,
    kernel: _Kernel,
    out: np.ndarray,
) -> None:
    """Signed readout of every output into ``out`` (``(instances, n, rows)``)."""
    if not lowered.read_slots.size:
        return
    values = _sign_extend(
        state[kernel.read_columns],
        kernel.read_offsets,
        kernel.read_shl,
        kernel.read_sar,
        kernel.word.signed,
    ).view(kernel.word.signed)
    np.multiply(
        values[lowered.read_slots], lowered.read_signs, out=out.transpose(1, 0, 2)
    )


def _decline(reason: str, **detail: object) -> None:
    """Record one wave decline (debug log + trace instant) and return ``None``.

    The batched path falling back to per-instance dispatch is correct but
    silent by design; routing every decline through here makes the fallback
    diagnosable without changing any result.
    """
    logger.debug("wave declined: %s %s", reason, detail or "")
    telemetry.instant("backend.wave_decline", category="device", reason=reason, **detail)


def _validate_staged(
    compiled: Sequence[_CompiledWaveProgram], staged: StagedWaveInputs, rows: int
) -> bool:
    """Shape/range-check staged operand batches (once, before chunking).

    Any missing name, wrong shape/dtype or out-of-range value declines the
    wave, so the backend falls back to per-instance execution where the
    ordinary semantics raise their proper errors.
    """
    entries = staged.planes if staged.planes is not None else staged.values
    if len(entries) != len(compiled):
        _decline("malformed-inputs", programs=len(compiled))
        return False
    total = staged.instances
    for program_index, lowered in enumerate(compiled):
        provided = entries[program_index]
        for name, region in lowered.loads:
            batch = provided.get(name)
            if batch is None:
                _decline("missing-input", program=program_index)
                return False
            if staged.planes is not None:
                if (
                    batch.shape != (total, rows, region.width)
                    or batch.dtype != np.uint8
                ):
                    _decline("invalid-input", name=name, program=program_index)
                    return False
            else:
                if batch.shape != (total, rows) or batch.dtype.kind not in "iu":
                    _decline("invalid-input", name=name, program=program_index)
                    return False
                if (
                    int(batch.min(initial=0)) < min_signed_value(region.width)
                    or int(batch.max(initial=0)) > max_signed_value(region.width)
                ):
                    _decline("invalid-input", name=name, program=program_index)
                    return False
    return True


def execute_program_wave(
    programs: Sequence[APProgram],
    staged: StagedWaveInputs,
    rows: int,
    columns: int,
    technology: Optional[RTMTechnology] = None,
    carry_column: int = 0,
) -> Optional[List[WaveResult]]:
    """Execute one tile's program sequence for many instances at once.

    Every instance models a fresh ``rows x columns`` AP running ``programs``
    back to back on its own staged operands (the exact contract of a fresh
    AP executing one tile).  Returns one :class:`WaveResult` per instance -
    byte-identical to running each instance alone on any registered backend
    - or ``None`` when the wave cannot take the batched path (unsupported
    instruction shapes, geometry, or malformed inputs).
    """
    technology = technology or DEFAULT_RTM_TECHNOLOGY
    domains = technology.domains_per_nanowire
    total = staged.instances
    if total == 0:
        return []
    if rows < 1 or columns < 1:
        _decline("geometry", rows=rows, columns=columns)
        return None
    if staged.rows != rows:
        _decline("geometry", rows=rows, staged_rows=staged.rows)
        return None

    compiled: List[_CompiledWaveProgram] = []
    for program in programs:
        if program.carry_column != carry_column:
            _decline(
                "carry-mismatch",
                program=program.carry_column,
                wave=carry_column,
            )
            return None
        lowered = compile_program_wave(program, columns, domains)
        if lowered is None:
            _decline("program-lowering", columns=columns, domains=domains)
            return None
        compiled.append(lowered)
    if not _validate_staged(compiled, staged, rows):
        return None

    word = _word_for(max((lowered.word_bits for lowered in compiled), default=1))
    # Port runs of the whole sequence, op indices offset to wave-wide ones.
    bases = np.cumsum([0] + [lowered.num_ops for lowered in compiled])
    events = np.concatenate(
        [np.empty((0, 5), dtype=np.int64)] + [lowered.events for lowered in compiled]
    )
    events[:, 3] += np.repeat(bases[:-1], [len(lowered.events) for lowered in compiled])
    ports = _PortReplay(events)

    # Chunk the wave so the register file, the widest level's temporaries
    # (two (K, passes) minterm blocks and a handful of (K,) operand blocks),
    # the port replay and the per-instance output matrix stay bounded;
    # instances are independent, so chunked and unchunked execution are
    # byte-identical.
    total_outputs = sum(lowered.num_outputs for lowered in compiled)
    widest = max(
        (len(level) for lowered in compiled for level in lowered.levels),
        default=0,
    )
    per_instance_bytes = (
        word.dtype.itemsize * rows * (columns + 1 + 20 * widest)
        + 8 * rows * total_outputs
        + 8 * int(bases[-1])
        + 40 * len(events)
    )
    chunk = max(1, min(total, _MAX_WAVE_STATE_BYTES // per_instance_bytes))
    results: List[WaveResult] = []
    with telemetry.span(
        "backend.wave",
        category="device",
        programs=len(programs),
        instances=total,
        rows=rows,
        columns=columns,
        ops=int(bases[-1]),
        levels=sum(len(lowered.levels) for lowered in compiled),
    ):
        for start in range(0, total, chunk):
            results.extend(
                _execute_wave_chunk(
                    compiled,
                    staged.slice(start, min(start + chunk, total)),
                    rows,
                    columns,
                    word,
                    ports,
                    bases,
                    total_outputs,
                )
            )
    return results


def _execute_wave_chunk(
    compiled: Sequence[_CompiledWaveProgram],
    staged: StagedWaveInputs,
    rows: int,
    columns: int,
    word: _Word,
    ports: _PortReplay,
    bases: np.ndarray,
    total_outputs: int,
) -> List[WaveResult]:
    instances = staged.instances
    # One word per (column, instance, row) cell, plus the zero column.
    state = np.zeros((columns + 1, instances, rows), dtype=word.dtype)
    # Per-instance write phases and written bits.
    counters = np.zeros((2, instances), dtype=np.int64)
    # Every op's fired bits (OR over passes and rows), for the port replay.
    fired = np.zeros((int(bases[-1]), instances), dtype=np.uint64)
    # All instances' outputs in one matrix: slot order is (program order,
    # names sorted within each program), so ``stacked[instance]`` is exactly
    # the per-tile partial-sum matrix the inference reduction consumes.
    stacked = np.empty((instances, total_outputs, rows), dtype=np.int64)
    planes = staged.planes is not None
    entries = staged.planes if planes else staged.values
    slot = 0
    for program_index, lowered in enumerate(compiled):
        kernel = lowered.kernel(word)
        # Loading operands into the wave state is host work (staging), not
        # CAM arithmetic: charge it to the ``host.stage`` ledger so the
        # host/device split stays honest.
        with telemetry.span("host.stage", category="host", mode="wave-load"):
            _load(state, lowered, kernel, entries[program_index], planes)
        program_fired = fired[bases[program_index] : bases[program_index + 1]]
        for level in kernel.levels:
            _run_level(
                state, level, word, lowered.carry_column, counters, program_fired
            )
        count = lowered.num_outputs
        _read(state, lowered, kernel, stacked[:, slot : slot + count])
        slot += count
    statics = [sum(column) for column in zip(*(lowered.static for lowered in compiled))]
    search_phases, searched, write_phases, written, loaded, read = statics or [0] * 6
    write_phases_all = (counters[0] + write_phases).tolist()
    written_all = (counters[1] + written * rows).tolist()
    lockstep = ports.replay(fired).tolist()
    # int64 addition is associative modulo 2**64, so the batched row sums
    # equal each instance's own per-vector sums bit for bit.
    totals = stacked.sum(axis=2).tolist()  # Python ints: exact checksum fold
    return [
        WaveResult(
            CAMStats(
                search_phases=search_phases,
                searched_bits=searched * rows,
                write_phases=write_phases_all[instance],
                written_bits=written_all[instance],
                lockstep_shift_steps=lockstep[instance],
                track_shifts=lockstep[instance] * rows,
                read_bits=read * rows,
                loaded_bits=loaded * rows,
            ),
            sum(totals[instance]),
            stacked[instance],
        )
        for instance in range(instances)
    ]
