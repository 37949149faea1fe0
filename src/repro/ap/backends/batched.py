"""Mega-kernel batched backend: one NumPy dispatch per instruction across a
whole layer's (images x tiles) wave.

The :class:`~repro.ap.backends.vectorized.VectorizedBackend` removed the
per-*bit* interpretation cost but still executes one ``(image, tile)`` AP at a
time, so a layer of ``N`` images times ``T`` row tiles pays ``N x T`` Python
instruction loops.  Those instances are perfectly homogeneous: every row tile
of one channel group shares the *same* compiled slice programs, only the
activation rows differ.  This module exploits that: it stacks the instances
into one ``(instances, rows, columns, domains)`` bit tensor and evaluates the
shared instruction stream once, so each AP instruction becomes a single batch
of NumPy kernel calls for the whole wave - the mega-kernel.

Equivalence contract (same as every backend, see :mod:`repro.ap.backends.base`):

* **Results** are computed exactly like the vectorized backend - operands are
  packed to int64 words, carries come from ``A ^ B ^ (A op B)`` - just with a
  leading instance axis.
* **CAMStats** are charged analytically from the per-LUT truth tensors.  The
  data-independent counters (search phases/bits, loaded/read bits) are shared
  scalars; the data-dependent ones (write phases/bits, shift steps) are
  per-instance ``(instances,)`` accumulators fed by one batched histogram
  (``np.bincount`` over the ``(carry, B, A)`` states of every instance, bit
  and row at once), so every instance's counters come out byte-identical to a
  standalone run on the reference interpreter.
* **Port positions** evolve per instance: data-independent alignment runs are
  broadcast, while the data-dependent out-of-place destination alignment
  (which spans only the first..last fired bit) is applied per instance under
  a fired mask.

Operands arrive host-staged as :class:`~repro.ap.backends.base.StagedWaveInputs`:
each operand is one ``(instances, rows)`` integer batch - or, on the packed
fast path, ``(instances, rows, width)`` bit planes unpacked once per layer via
:mod:`repro.ap.backends.packing` - so loads slice views of one staged tensor
instead of copying rows per instance, and the plane form skips the per-load
unpack entirely.  Both forms produce byte-identical results and counters.

The kernel :func:`execute_program_wave` is conservative: any program shape
the vectorized backend would route to its interpreter fallback (operands on
the carry column, aliasing destinations, >60-bit words), or any malformed
input batch, declines (returns ``None``).
:meth:`BatchedBackend.execute_wave` - the backend's side of the device
contract - then falls back to the per-instance loop of
:class:`~repro.ap.backends.base.ExecutionBackend`, where the ordinary
semantics raise the proper errors.  :func:`wave_staging_plan` lets the host
pre-flight (and pre-lower) a tile's programs at deploy time, so serving
requests never pay the lowering cost and the host knows the operand widths
to stage.

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
    _cached_lut,
    lut_truth_matrix,
)
from repro import telemetry
from repro.ap.backends.packing import bit_shifts as _bit_shifts, pow2 as _pow2
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.cam.stats import CAMStats
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY, RTMTechnology
from repro.telemetry.logs import get_logger
from repro.utils.bitops import max_signed_value, min_signed_value

logger = get_logger(__name__)

#: Soft cap on the stacked bit tensor of one wave chunk; instances beyond it
#: are processed in equivalence-preserving chunks (instances are independent).
_MAX_WAVE_STATE_BYTES = 256 * 1024 * 1024

#: Cached word dtype, shift and packing vectors per width for the arithmetic
#: kernel.  Words up to 30 bits fit int32 with their carry bit, halving the
#: memory traffic of the packed-value temporaries; the integer results are
#: bit-identical below bit 31, so the choice never changes an outcome.
_ARITH_CACHE: Dict[int, Tuple[type, np.ndarray, np.ndarray]] = {}

#: Static per-opcode facts (enum property calls are too slow for the lowering
#: hot loop: a full-width resnet18 plan lowers ~500k instructions).
_OPCODE_META: Dict[APOpcode, Tuple[bool, bool, Optional[str]]] = {
    opcode: (opcode.is_arithmetic, opcode.is_inplace, opcode.lut_kind)
    for opcode in APOpcode
}

#: Cached (truth, fired_by_state, num_passes) per (lut_kind, inplace).
_ARITH_META_CACHE: Dict[Tuple[str, bool], Tuple[np.ndarray, np.ndarray, int]] = {}


def _arith_dtype(width: int) -> Tuple[type, np.ndarray, np.ndarray]:
    entry = _ARITH_CACHE.get(width)
    if entry is None:
        dtype = np.int32 if width < 31 else np.int64
        shifts = _bit_shifts(width).astype(dtype)
        entry = _ARITH_CACHE[width] = (dtype, shifts, np.ones(1, dtype) << shifts)
    return entry


def _arith_meta(kind: str, inplace: bool) -> Tuple[np.ndarray, np.ndarray, int]:
    key = (kind, inplace)
    meta = _ARITH_META_CACHE.get(key)
    if meta is None:
        truth = lut_truth_matrix(kind, inplace)
        meta = _ARITH_META_CACHE[key] = (
            truth,
            truth.any(axis=1),
            len(_cached_lut(kind, inplace).entries),
        )
    return meta


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
# Wave compilation: APProgram -> flat descriptors the mega-kernel can run
# ----------------------------------------------------------------------
class _Region:
    """Flattened :class:`~repro.ap.isa.ColumnRegion` (plain ints)."""

    __slots__ = ("column", "width", "offset")

    def __init__(self, column: int, width: int, offset: int) -> None:
        self.column = column
        self.width = width
        self.offset = offset

    def bit_position(self, bit: int) -> int:
        return self.offset + min(bit, self.width - 1)


def _region(region: ColumnRegion) -> _Region:
    return _Region(region.column, region.width, region.domain_offset)


class _ArithOp:
    __slots__ = (
        "lut_kind",
        "inplace",
        "width",
        "src_a",
        "src_b",
        "dest",
        "extras",
        "truth",
        "fired_by_state",
        "num_passes",
        "written_columns",
    )

    def __init__(
        self,
        lut_kind: str,
        inplace: bool,
        width: int,
        src_a: _Region,
        src_b: _Region,
        dest: _Region,
        extras: Tuple[_Region, ...],
        truth: np.ndarray,
        fired_by_state: np.ndarray,
        num_passes: int,
        written_columns: int,
    ) -> None:
        self.lut_kind = lut_kind
        self.inplace = inplace
        self.width = width
        self.src_a = src_a
        self.src_b = src_b
        self.dest = dest
        self.extras = extras
        self.truth = truth
        self.fired_by_state = fired_by_state
        self.num_passes = num_passes
        self.written_columns = written_columns


class _CopyOp:
    __slots__ = ("width", "src", "dests")

    def __init__(self, width: int, src: _Region, dests: Tuple[_Region, ...]) -> None:
        self.width = width
        self.src = src
        self.dests = dests


class _ClearOp:
    __slots__ = ("dests",)

    def __init__(self, dests: Tuple[_Region, ...]) -> None:
        self.dests = dests


class _CompiledWaveProgram:
    """One program lowered to wave descriptors (valid for a geometry).

    ``reads_sorted`` fixes the output slot order (names sorted within the
    program) once at lowering time, and ``read_batch`` holds the
    fancy-index column gather for the common case where every output region
    shares one (offset, width) - so a whole program's outputs are packed with
    one matrix product instead of one readout call per name.
    """

    __slots__ = ("loads", "ops", "reads", "reads_sorted", "read_batch")

    def __init__(
        self,
        loads: Tuple[Tuple[str, _Region], ...],
        ops: Tuple[object, ...],
        reads: Tuple[Tuple[str, _Region, bool], ...],
    ) -> None:
        self.loads = loads
        self.ops = ops
        self.reads = reads
        self.reads_sorted = tuple(sorted(reads, key=lambda entry: entry[0]))
        self.read_batch = None
        if self.reads_sorted:
            first = self.reads_sorted[0][1]
            offset, width = first.offset, first.width
            if all(
                region.offset == offset and region.width == width
                for _, region, _ in self.reads_sorted
            ):
                self.read_batch = (
                    np.array(
                        [region.column for _, region, _ in self.reads_sorted],
                        dtype=np.intp,
                    ),
                    offset,
                    width,
                    np.array(
                        [
                            index
                            for index, (_, _, negated) in enumerate(self.reads_sorted)
                            if negated
                        ],
                        dtype=np.intp,
                    ),
                )


def _region_fits(region: ColumnRegion, columns: int, domains: int) -> bool:
    return region.column < columns and region.end_domain <= domains


def _compile_instruction(
    instruction: APInstruction, carry_column: int, columns: int, domains: int
):
    """Lower one instruction to a wave descriptor, or ``None`` if it needs
    the per-instance path (any vectorized-fallback shape or geometry the
    per-instance backends would reject with a proper error)."""
    is_arith, inplace, lut_kind = _OPCODE_META[instruction.opcode]
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
        width = instruction.width
        if width > _MAX_VECTOR_WIDTH:
            return None
        all_dests = instruction.all_dests
        seen_columns = set()
        for index, region in enumerate(all_dests):
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
        truth, fired_by_state, num_passes = _arith_meta(lut_kind, inplace)
        return _ArithOp(
            lut_kind=lut_kind,
            inplace=inplace,
            width=width,
            src_a=_region(src_a),
            src_b=_region(src_b),
            dest=_region(dest),
            extras=tuple(_region(extra) for extra in extra_dests),
            truth=truth,
            fired_by_state=fired_by_state,
            num_passes=num_passes,
            written_columns=2 if inplace else 2 + len(extra_dests),
        )
    if instruction.opcode is APOpcode.COPY:
        src = instruction.src_a
        if src is None:
            return None
        width = instruction.width
        if width > _MAX_VECTOR_WIDTH or src.width > _MAX_VECTOR_WIDTH:
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
        return _CopyOp(width=width, src=_region(src), dests=tuple(map(_region, dests)))
    if instruction.opcode is APOpcode.CLEAR:
        dests = instruction.all_dests
        for region in dests:
            if region.column >= columns or region.domain_offset + region.width > domains:
                return None
        return _ClearOp(dests=tuple(map(_region, dests)))
    return None  # pragma: no cover - enum is closed


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
    if not (0 <= carry < columns) or domains < 1:
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
    ops: List[object] = []
    for instruction in program.instructions:
        op = _compile_instruction(instruction, carry, columns, domains)
        if op is None:
            logger.debug(
                "wave lowering declined: instruction %s needs per-instance path",
                instruction.opcode.name,
            )
            return None
        ops.append(op)
    return _CompiledWaveProgram(
        loads=tuple(
            (name, _region(region)) for name, region in program.input_columns.items()
        ),
        ops=tuple(ops),
        reads=tuple(
            (name, _region(region), bool(program.output_negated.get(name, False)))
            for name, region in program.output_columns.items()
        ),
    )


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
    deploy time moves the whole lowering cost out of the serving window) and
    returns ``(load_widths, uniform_width)``: per program the operand name ->
    region width map the host must stage, plus the single shared width when
    every load agrees (the packed bit-plane fast path).  Returns ``None``
    when any program would decline wave execution, so the caller can stage
    the layer for per-instance execution up front.
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
# The mega-kernel: batched instruction evaluation over stacked instances
# ----------------------------------------------------------------------
class _WaveEngine:
    """State of one wave chunk: ``instances`` APs evaluated in lockstep.

    Mirrors one :class:`~repro.cam.array.CAMArray` per instance - a stacked
    ``(instances, rows, columns, domains)`` bit tensor plus per-instance port
    positions and event counters - with every instruction evaluated across
    all instances at once.
    """

    def __init__(
        self, instances: int, rows: int, columns: int, domains: int, carry: int
    ) -> None:
        self.instances = instances
        self.rows = rows
        self.carry = carry
        self.state = np.zeros((instances, rows, columns, domains), dtype=np.uint8)
        self.ports = np.zeros((instances, columns), dtype=np.int64)
        self.write_phases = np.zeros(instances, dtype=np.int64)
        self.written_bits = np.zeros(instances, dtype=np.int64)
        self.lockstep = np.zeros(instances, dtype=np.int64)
        self.track = np.zeros(instances, dtype=np.int64)
        # Data-independent counters are identical across instances.
        self.search_phases = 0
        self.searched_bits = 0
        self.read_bits = 0
        self.loaded_bits = 0
        self._hist_offsets: Dict[int, np.ndarray] = {}

    # -- alignment accounting ------------------------------------------
    def align_run(self, column: int, first: int, last: int) -> None:
        """Broadcast equivalent of :meth:`CAMArray.align_run` (shared run)."""
        steps = np.abs(first - self.ports[:, column]) + (last - first)
        self.lockstep += steps
        self.track += steps * self.rows
        self.ports[:, column] = last

    def align_pair(
        self,
        column_a: int,
        first_a: int,
        last_a: int,
        column_b: int,
        first_b: int,
        last_b: int,
    ) -> None:
        """Two broadcast alignment runs fused into one accounting pass.

        Same counters as two :meth:`align_run` calls (integer addition
        commutes); one fused step vector halves the NumPy dispatches on the
        arithmetic hot path, which issues this once per instruction.
        """
        ports = self.ports
        steps = (
            np.abs(first_a - ports[:, column_a])
            + (last_a - first_a)
            + np.abs(first_b - ports[:, column_b])
            + (last_b - first_b)
        )
        self.lockstep += steps
        self.track += steps * self.rows
        ports[:, column_a] = last_a
        ports[:, column_b] = last_b

    def align_run_masked(
        self, column: int, first: np.ndarray, last: np.ndarray, mask: np.ndarray
    ) -> None:
        """Per-instance alignment run, applied only where ``mask`` holds."""
        if mask.all():
            # Dense activations fire every instance; skip the masked blend.
            steps = np.abs(first - self.ports[:, column]) + (last - first)
            self.lockstep += steps
            self.track += steps * self.rows
            self.ports[:, column] = last
            return
        steps = np.where(mask, np.abs(first - self.ports[:, column]) + (last - first), 0)
        self.lockstep += steps
        self.track += steps * self.rows
        self.ports[mask, column] = last[mask]

    # -- operand access -------------------------------------------------
    def read_planes(self, region: _Region, width: int) -> np.ndarray:
        """Region bit planes sign-extended to ``width`` bits (no events)."""
        block = self.state[:, :, region.column, region.offset : region.offset + region.width]
        if width <= region.width:
            return block[:, :, :width]
        # Clamped gather replays the MSB, like ColumnRegion.bit_position.
        columns = np.minimum(_bit_shifts(width), region.width - 1)
        return block[:, :, columns]

    def write_planes(self, column: int, offset: int, planes: np.ndarray) -> None:
        self.state[:, :, column, offset : offset + planes.shape[-1]] = planes

    def hist_offsets(self, width: int) -> np.ndarray:
        """Flattened-histogram bin offsets: instance stride plus bit stride."""
        offsets = self._hist_offsets.get(width)
        if offsets is None:
            base = (np.arange(self.instances, dtype=np.int64) * (8 * width)).reshape(
                self.instances, 1, 1
            )
            offsets = base + 8 * _bit_shifts(width)
            self._hist_offsets[width] = offsets
        return offsets

    # -- instruction kernels --------------------------------------------
    def run_arith(self, op: _ArithOp) -> None:
        width = op.width
        dtype, shifts, pow2 = _arith_dtype(width)
        if not op.inplace:
            for region in (op.dest,) + op.extras:
                self.state[
                    :, :, region.column, region.offset : region.offset + region.width
                ] = 0
        # Carry-clearing write (align to domain 0, one tagged write phase).
        carry_steps = np.abs(self.ports[:, self.carry])
        self.lockstep += carry_steps
        self.track += carry_steps * self.rows
        self.ports[:, self.carry] = 0
        self.write_phases += 1
        self.written_bits += self.rows
        self.state[:, :, self.carry, 0] = 0

        a_planes = self.read_planes(op.src_a, width)
        b_planes = self.read_planes(op.src_b, width)
        a_values = a_planes.astype(dtype) @ pow2
        b_values = b_planes.astype(dtype) @ pow2
        if op.lut_kind == "add":
            results = a_values + b_values
        else:
            results = b_values - a_values
        carries = a_values ^ b_values ^ results

        # Build the 3-bit (carry, b, a) state codes in uint8 to keep the big
        # temporaries byte-sized; the bincount add upcasts to int64 in one pass.
        states = ((carries[:, :, None] >> shifts) & 1).astype(np.uint8)
        states <<= 1
        states |= b_planes
        states <<= 1
        states |= a_planes
        histogram = np.bincount(
            (states + self.hist_offsets(width)).ravel(),
            minlength=self.instances * 8 * width,
        ).reshape(self.instances, width, 8)
        match_counts = histogram @ op.truth  # (instances, width, passes)
        fired = match_counts > 0

        self.search_phases += width * op.num_passes
        self.searched_bits += width * op.num_passes * 3 * self.rows
        self.write_phases += fired.sum(axis=(1, 2))
        self.written_bits += match_counts.sum(axis=(1, 2)) * op.written_columns

        src_a, src_b = op.src_a, op.src_b
        self.align_pair(
            src_b.column,
            src_b.bit_position(0),
            src_b.bit_position(width - 1),
            src_a.column,
            src_a.bit_position(0),
            src_a.bit_position(width - 1),
        )
        if not op.inplace:
            any_fired = fired.any(axis=2)  # (instances, width)
            has_fired = any_fired.any(axis=1)
            first = any_fired.argmax(axis=1)
            last = width - 1 - any_fired[:, ::-1].argmax(axis=1)
            for region in (op.dest,) + op.extras:
                self.align_run_masked(
                    region.column, region.offset + first, region.offset + last, has_fired
                )

        result_region = op.src_b if op.inplace else op.dest
        # int64 0/1 planes; assignment into the uint8 state casts losslessly.
        result_planes = (results[:, :, None] >> shifts) & 1
        self.write_planes(result_region.column, result_region.offset, result_planes)
        for extra in op.extras:
            if extra.width >= width:
                self.write_planes(extra.column, extra.offset, result_planes)
            else:
                # Only extra.width bits were pre-zeroed: above them, rows
                # whose state fires no pass keep their stale contents.
                old = self.state[
                    :, :, extra.column, extra.offset : extra.offset + width
                ]
                self.write_planes(
                    extra.column,
                    extra.offset,
                    np.where(op.fired_by_state[states], result_planes, old),
                )
        self.state[:, :, self.carry, 0] = (carries >> dtype(width)) & 1

    def run_copy(self, op: _CopyOp) -> None:
        width = op.width
        planes = self.read_planes(op.src, width)
        ones = planes.sum(axis=1, dtype=np.int64)  # (instances, width)
        zeros = self.rows - ones

        self.search_phases += 2 * width
        self.searched_bits += 2 * width * self.rows
        self.write_phases += (ones > 0).sum(axis=1) + (zeros > 0).sum(axis=1)
        self.written_bits += width * self.rows * len(op.dests)

        self.align_run(
            op.src.column, op.src.bit_position(0), op.src.bit_position(width - 1)
        )
        for dest in op.dests:
            self.align_run(dest.column, dest.offset, dest.offset + width - 1)
        for dest in op.dests:
            self.write_planes(dest.column, dest.offset, planes)

    def run_clear(self, op: _ClearOp) -> None:
        for dest in op.dests:
            self.align_run(dest.column, dest.offset, dest.offset + dest.width - 1)
            self.write_phases += dest.width
            self.written_bits += dest.width * self.rows
            self.state[:, :, dest.column, dest.offset : dest.offset + dest.width] = 0

    def run_op(self, op: object) -> None:
        if isinstance(op, _ArithOp):
            self.run_arith(op)
        elif isinstance(op, _CopyOp):
            self.run_copy(op)
        else:
            self.run_clear(op)

    # -- program-level surfaces -----------------------------------------
    def load(self, region: _Region, values: np.ndarray) -> None:
        """Place a ``(instances, rows)`` operand batch (input placement)."""
        planes = (values[:, :, None] >> _bit_shifts(region.width)) & np.int64(1)
        self.write_planes(region.column, region.offset, planes)
        self.loaded_bits += self.rows * region.width

    def load_planes(self, region: _Region, planes: np.ndarray) -> None:
        """Plane-form :meth:`load`: pre-unpacked ``(instances, rows, width)``.

        Same state content and ``loaded_bits`` accounting as :meth:`load` on
        the packed values - the host already unpacked the layer's codes once
        (see :func:`repro.ap.backends.packing.unpack_bits`), so the wave
        skips the per-load unpack entirely.
        """
        self.write_planes(region.column, region.offset, planes)
        self.loaded_bits += self.rows * region.width

    def read(self, region: _Region) -> np.ndarray:
        """Signed ``(instances, rows)`` readout of a region (port readout)."""
        planes = self.state[
            :, :, region.column, region.offset : region.offset + region.width
        ].astype(np.int64)
        raw = planes @ _pow2(region.width)
        values = raw - (planes[:, :, region.width - 1] << np.int64(region.width))
        self.read_bits += self.rows * region.width
        return values

    def stats_for(self, instance: int) -> CAMStats:
        return CAMStats(
            search_phases=self.search_phases,
            searched_bits=self.searched_bits,
            write_phases=int(self.write_phases[instance]),
            written_bits=int(self.written_bits[instance]),
            lockstep_shift_steps=int(self.lockstep[instance]),
            track_shifts=int(self.track[instance]),
            read_bits=self.read_bits,
            loaded_bits=self.loaded_bits,
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

    # Chunk the wave so the stacked bit tensor and the per-instance output
    # matrix stay bounded; instances are independent, so chunked and
    # unchunked execution are byte-identical.
    total_outputs = sum(len(lowered.reads) for lowered in compiled)
    per_instance_bytes = max(1, rows * columns * domains + 8 * rows * total_outputs)
    chunk = max(1, min(total, _MAX_WAVE_STATE_BYTES // per_instance_bytes))
    results: List[WaveResult] = []
    with telemetry.span(
        "backend.wave",
        category="device",
        programs=len(programs),
        instances=total,
        rows=rows,
        columns=columns,
    ):
        for start in range(0, total, chunk):
            results.extend(
                _execute_wave_chunk(
                    compiled,
                    staged.slice(start, min(start + chunk, total)),
                    rows,
                    columns,
                    domains,
                    carry_column,
                )
            )
    return results


def _execute_wave_chunk(
    compiled: Sequence[_CompiledWaveProgram],
    staged: StagedWaveInputs,
    rows: int,
    columns: int,
    domains: int,
    carry_column: int,
) -> List[WaveResult]:
    instances = staged.instances
    engine = _WaveEngine(instances, rows, columns, domains, carry_column)
    total_outputs = sum(len(lowered.reads) for lowered in compiled)
    # All instances' outputs in one matrix: slot order is (program order,
    # names sorted within each program), so ``stacked[instance]`` is exactly
    # the per-tile partial-sum matrix the inference reduction consumes.
    stacked = np.empty((instances, total_outputs, rows), dtype=np.int64)
    slot = 0
    for program_index, lowered in enumerate(compiled):
        # Loading operands into the wave state is host work (staging), not
        # CAM arithmetic: charge it to the ``host.stage`` ledger so the
        # host/device split stays honest.
        with telemetry.span("host.stage", category="host", mode="wave-load"):
            if staged.planes is not None:
                provided = staged.planes[program_index]
                for name, region in lowered.loads:
                    engine.load_planes(region, provided[name])
            else:
                provided = staged.values[program_index]
                for name, region in lowered.loads:
                    engine.load(region, provided[name])
        for op in lowered.ops:
            engine.run_op(op)
        read_batch = lowered.read_batch
        if read_batch is not None:
            # Batched readout: one fancy gather + one matrix product packs
            # every output region of the program (all share offset/width).
            read_columns, offset, width, negated = read_batch
            count = len(read_columns)
            block = engine.state[
                :, :, read_columns, offset : offset + width
            ].astype(np.int64)
            values = block @ _pow2(width)  # (instances, rows, count)
            values -= block[:, :, :, width - 1] << np.int64(width)
            if negated.size:
                values[:, :, negated] = -values[:, :, negated]
            engine.read_bits += count * rows * width
            stacked[:, slot : slot + count] = values.transpose(0, 2, 1)
            slot += count
        else:
            for name, region, negated in lowered.reads_sorted:
                values = engine.read(region)
                if negated:
                    np.negative(values, out=stacked[:, slot])
                else:
                    stacked[:, slot] = values
                slot += 1
    # int64 addition is associative modulo 2**64, so the batched row sums
    # equal each instance's own per-vector sums bit for bit.
    totals = stacked.sum(axis=2).tolist()  # Python ints: exact checksum fold
    return [
        WaveResult(engine.stats_for(instance), sum(totals[instance]), stacked[instance])
        for instance in range(instances)
    ]
