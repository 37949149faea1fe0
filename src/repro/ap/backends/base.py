"""Execution-backend interface of the associative processor.

An :class:`ExecutionBackend` implements the instruction semantics of the AP on
a shared :class:`~repro.cam.array.CAMArray`.  Backends are interchangeable:
for every instruction they must leave the array's visible state (stored bits,
port positions) *and* the accumulated :class:`~repro.cam.stats.CAMStats`
event counters in exactly the state the bit-serial hardware would - only how
those results are computed may differ.  This is what keeps the energy/latency
accounting (Table II, Fig. 4) independent of simulation speed.

Three backends ship with the library:

* ``reference`` (:class:`~repro.ap.backends.reference.ReferenceBackend`) -
  the bit-exact masked-search / tagged-write interpreter.  Every LUT pass is
  simulated as the hardware performs it; events are counted as they happen.
* ``vectorized`` (:class:`~repro.ap.backends.vectorized.VectorizedBackend`) -
  a NumPy backend that computes each instruction word-parallel across rows
  and bit-parallel across positions, then charges the exact same events
  analytically from precomputed per-LUT truth tensors.
* ``batched`` (:class:`~repro.ap.backends.batched.BatchedBackend`) - the
  vectorized semantics plus a native *wave* kernel
  (:func:`~repro.ap.backends.batched.execute_program_wave`): all (image, row
  tile) instances of one layer share one word register file (one word per
  nanowire) and each hazard-free level of the shared program runs once
  across the whole wave, with per-instance counters charged from popcounts
  of the LUT passes' minterm words.

Whole layers reach a backend through one device contract,
:meth:`ExecutionBackend.execute_wave`: one tile's programs run for every
instance of a host-staged :class:`StagedWaveInputs` batch.  The default runs
one fresh AP per instance; backends with ``supports_program_wave`` override
it with a native kernel that must return byte-identical results.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.ap.backends.packing import pack_planes
from repro.ap.isa import APInstruction, APProgram, ColumnRegion
from repro.cam.array import CAMArray
from repro.cam.stats import CAMStats
from repro.errors import CompilationError
from repro.rtm.timing import RTMTechnology


class StagedWaveInputs:
    """Operand batches staged by the host for one wave group.

    Exactly one of ``values``/``planes`` is given, each one entry per
    program:

    * ``values[j][name]`` - ``(instances, rows)`` integer batch: every
      instance's operand rows as views (or one vectorized gather) of the
      layer's staged operand tensor.
    * ``planes[j][name]`` - ``(instances, rows, width)`` uint8 bit planes,
      pre-unpacked once per layer (see
      :func:`repro.ap.backends.packing.unpack_bits`): a native wave packs
      each program's planes into its register words in one product per
      load width.  ``width`` must equal the load region's width (pre-flight via
      :func:`~repro.ap.backends.batched.wave_staging_plan`).
    """

    __slots__ = ("instances", "rows", "values", "planes")

    def __init__(
        self,
        instances: int,
        rows: int,
        values: Optional[Sequence[Mapping[str, np.ndarray]]] = None,
        planes: Optional[Sequence[Mapping[str, np.ndarray]]] = None,
    ) -> None:
        if (values is None) == (planes is None):
            raise ValueError("StagedWaveInputs takes exactly one of values/planes")
        self.instances = instances
        self.rows = rows
        self.values = values
        self.planes = planes

    def __len__(self) -> int:
        return self.instances

    def slice(self, start: int, stop: int) -> "StagedWaveInputs":
        """The instances ``start:stop`` as their own batch (views, no copy)."""

        def cut(entries):
            return [
                {name: batch[start:stop] for name, batch in program.items()}
                for program in entries
            ]

        if self.planes is not None:
            return StagedWaveInputs(stop - start, self.rows, planes=cut(self.planes))
        return StagedWaveInputs(stop - start, self.rows, values=cut(self.values))

    def instance_inputs(self, program_index: int, instance: int) -> Dict[str, np.ndarray]:
        """One instance's ``{name: row vector}`` operands for one program.

        Plane batches are packed back to two's complement words, so both
        forms feed :meth:`~repro.ap.core.AssociativeProcessor.run_program`
        the same integers.
        """
        if self.planes is not None:
            return {
                name: pack_planes(batch[instance])
                for name, batch in self.planes[program_index].items()
            }
        return {
            name: batch[instance]
            for name, batch in self.values[program_index].items()
        }


class WaveResult(NamedTuple):
    """One instance's outcome of a wave.

    ``outputs`` stacks every output vector as one ``(total outputs, rows)``
    int64 matrix in (program order, names sorted within each program) order;
    ``checksum`` folds all of them exactly (Python integers).
    """

    stats: CAMStats
    checksum: int
    outputs: np.ndarray


class ExecutionBackend(abc.ABC):
    """Executes AP instructions on a CAM array.

    Args:
        array: the CAM array holding the operand state and event counters.
        carry_column: column reserved for the carry/borrow bit.
    """

    #: Registry name of the backend (e.g. ``"reference"``).
    name: ClassVar[str] = "abstract"

    def __init__(self, array: CAMArray, carry_column: int) -> None:
        self.array = array
        self.carry_column = carry_column

    #: Whether :meth:`execute_wave` is a native whole-wave kernel that runs
    #: in the calling thread; per-instance backends are fanned out over the
    #: executor's pool instead.
    supports_program_wave: ClassVar[bool] = False

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def execute(self, instruction: APInstruction, active_rows: int) -> None:
        """Execute one instruction on the first ``active_rows`` rows."""

    @classmethod
    def execute_wave(
        cls,
        programs: Sequence[APProgram],
        staged: StagedWaveInputs,
        rows: int,
        columns: int,
        technology: Optional[RTMTechnology] = None,
    ) -> List[WaveResult]:
        """Run one tile's ``programs`` for every instance of a staged wave.

        Every instance models a fresh ``rows x columns`` AP executing the
        programs back to back on its own operands - the contract of one tile
        dispatch.  This default does exactly that, one AP run (and one
        ``device.tile`` span) per instance; out-of-range or malformed
        operands raise the AP's own errors.  Returns one
        :class:`WaveResult` per instance, in instance order.
        """
        from repro.ap.core import AssociativeProcessor

        ap = AssociativeProcessor(
            rows=rows, columns=columns, technology=technology, backend=cls
        )
        results: List[WaveResult] = []
        for instance in range(staged.instances):
            with telemetry.span(
                "device.tile", category="device", backend=cls.name, instance=instance
            ):
                # A reset AP is indistinguishable from a fresh one (stored
                # bits, ports and counters wiped), and reusing its buffers
                # skips a state-tensor allocation per instance.
                ap.array.reset()
                vectors: List[np.ndarray] = []
                for index, program in enumerate(programs):
                    outputs = ap.run_program(
                        program, staged.instance_inputs(index, instance), num_rows=rows
                    )
                    vectors.extend(
                        np.asarray(outputs[name], dtype=np.int64)
                        for name in sorted(outputs)
                    )
                stacked = (
                    np.stack(vectors) if vectors else np.empty((0, rows), np.int64)
                )
            results.append(
                WaveResult(
                    ap.reset_stats(), sum(stacked.sum(axis=1).tolist()), stacked
                )
            )
        return results

    # ------------------------------------------------------------------
    # Shared structural validation (identical across backends)
    # ------------------------------------------------------------------
    def _prepare_arithmetic(
        self, instruction: APInstruction
    ) -> Tuple[ColumnRegion, ColumnRegion]:
        """Validate an add/sub instruction and normalise its operand roles.

        Returns the effective ``(src_a, src_b)`` pair: for an in-place add
        that overwrites ``src_a`` the sources are swapped (addition is
        commutative and the in-place LUT always overwrites operand B).
        """
        src_a = instruction.src_a
        src_b = instruction.src_b
        dest = instruction.dest
        opcode = instruction.opcode
        assert src_a is not None and src_b is not None

        if src_a.column == src_b.column:
            raise CompilationError(
                f"AP arithmetic needs distinct source columns, got column "
                f"{src_a.column} twice ({instruction.comment!r})"
            )
        if opcode.lut_kind == "add" and opcode.is_inplace and dest == src_a:
            src_a, src_b = src_b, src_a
        if opcode.is_inplace and dest != src_b:
            raise CompilationError(
                f"in-place {opcode.lut_kind} must overwrite its B operand "
                f"({instruction.comment!r})"
            )
        if not opcode.is_inplace:
            overlapping = {dest.column} & {src_a.column, src_b.column}
            if overlapping:
                raise CompilationError(
                    f"out-of-place destination column {overlapping} overlaps a "
                    f"source ({instruction.comment!r})"
                )
        elif instruction.extra_dests:
            raise CompilationError(
                "multi-destination writes are only supported for out-of-place "
                f"operations ({instruction.comment!r})"
            )
        return src_a, src_b
