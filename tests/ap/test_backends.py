"""Cross-backend equivalence: batched vs. vectorized vs. reference execution.

The contract of :mod:`repro.ap.backends` is that every backend leaves the
CAM in a byte-identical state and accumulates identical
:class:`~repro.cam.stats.CAMStats` counters.  These tests enforce it with a
deterministic opcode matrix, targeted edge cases (sign extension, narrow
extra destinations, partial rows, fallback layouts) and a randomized
program fuzz.  The wave tests additionally pin the layer-level device
contract: every backend's ``execute_wave`` reproduces per-instance execution
byte for byte, and the ``batched`` kernel
:func:`~repro.ap.backends.batched.execute_program_wave` either does too or
declines (returns ``None``) so its backend falls back per instance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ap.backends import (
    DEFAULT_BACKEND,
    BatchedBackend,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.ap.backends.batched import (
    StagedWaveInputs,
    execute_program_wave,
    wave_staging_plan,
)
from repro.ap.backends.harness import (
    compare_backends,
    random_inputs,
    random_program,
)
from repro.ap.backends.vectorized import lut_truth_matrix
from repro.ap.core import AssociativeProcessor
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.ap.lut import all_luts, simulate_lut_passes
from repro import telemetry
from repro.errors import ConfigurationError, QuantizationError


def run_both(program, inputs, rows=16, columns=16):
    comparison = compare_backends(program, inputs, rows=rows, columns=columns)
    assert comparison.equivalent, comparison.describe()
    return comparison


def single_instruction_program(instruction, input_regions, output_regions):
    program = APProgram(name="unit", carry_column=0)
    program.input_columns = input_regions
    program.output_columns = output_regions
    program.append(instruction)
    return program


class TestRegistry:
    def test_available_backends(self):
        assert "reference" in available_backends()
        assert "vectorized" in available_backends()
        assert "batched" in available_backends()
        # The fast backend is the default; the interpreter stays the
        # ground truth and can be forced via REPRO_AP_BACKEND (which CI
        # uses for a full-suite ground-truth run).
        import os

        expected = os.environ.get("REPRO_AP_BACKEND", "").strip() or "vectorized"
        assert DEFAULT_BACKEND == expected

    def test_resolve_by_name_and_class(self):
        assert resolve_backend("vectorized") is VectorizedBackend
        assert resolve_backend("batched") is BatchedBackend
        assert resolve_backend(ReferenceBackend) is ReferenceBackend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("warp-drive")
        with pytest.raises(ConfigurationError):
            AssociativeProcessor(rows=4, columns=4, backend="warp-drive")

    def test_register_requires_name(self):
        class Nameless(ReferenceBackend):
            name = "abstract"

        with pytest.raises(ConfigurationError):
            register_backend(Nameless)

    def test_create_backend_binds_array(self):
        ap = AssociativeProcessor(rows=4, columns=4, backend="vectorized")
        assert ap.backend.name == "vectorized"
        assert ap.backend.array is ap.array
        backend = create_backend("reference", ap.array, 0)
        assert backend.array is ap.array


class TestTruthTensors:
    @pytest.mark.parametrize("lut", all_luts(), ids=lambda lut: lut.name)
    def test_truth_matrix_matches_pass_simulation(self, lut):
        """Each truth-tensor row reproduces the firing passes of one state."""
        matrix = lut_truth_matrix(lut.kind, lut.inplace)
        assert matrix.shape == (8, len(lut.entries))
        for state in range(8):
            carry, b, a = (state >> 2) & 1, (state >> 1) & 1, state & 1
            # Re-simulate and count matches independently.
            state_carry, state_b, state_r = carry, b, 0
            fired = []
            for entry in lut.entries:
                if (state_carry, state_b, a) == entry.search:
                    fired.append(1)
                    if lut.inplace:
                        state_carry, state_b = entry.write
                    else:
                        state_carry, state_r = entry.write
                else:
                    fired.append(0)
            assert list(matrix[state]) == fired
            # And the final state agrees with the ordered pass simulation.
            got_carry, got_result = simulate_lut_passes(lut, carry, b, a)
            assert (got_carry, got_result) == (
                state_carry,
                state_b if lut.inplace else state_r,
            )


class TestOpcodeMatrix:
    """Every opcode/placement combination, field-by-field equivalence."""

    @pytest.mark.parametrize("kind", ["add", "sub"])
    @pytest.mark.parametrize("inplace", [False, True])
    @pytest.mark.parametrize("width", [1, 4, 9])
    def test_arithmetic(self, rng, kind, inplace, width):
        a = ColumnRegion(column=1, width=width)
        b = ColumnRegion(column=2, width=width)
        if inplace:
            dest = b
            opcode = APOpcode.ADD_INPLACE if kind == "add" else APOpcode.SUB_INPLACE
        else:
            dest = ColumnRegion(column=3, width=width)
            opcode = (
                APOpcode.ADD_OUTOFPLACE if kind == "add" else APOpcode.SUB_OUTOFPLACE
            )
        program = single_instruction_program(
            APInstruction(opcode=opcode, dest=dest, src_a=a, src_b=b),
            {"a": a, "b": b},
            {"y": dest},
        )
        inputs = random_inputs(program, 16, rng)
        run_both(program, inputs)

    def test_inplace_add_overwriting_src_a(self, rng):
        """The commutative swap path (dest == src_a) stays equivalent."""
        a = ColumnRegion(column=1, width=6)
        b = ColumnRegion(column=2, width=6)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.ADD_INPLACE, dest=a, src_a=a, src_b=b),
            {"a": a, "b": b},
            {"y": a},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_sign_extended_narrow_source(self, rng):
        narrow = ColumnRegion(column=1, width=3)
        wide = ColumnRegion(column=2, width=9)
        dest = ColumnRegion(column=3, width=9)
        program = single_instruction_program(
            APInstruction(
                opcode=APOpcode.SUB_OUTOFPLACE, dest=dest, src_a=narrow, src_b=wide
            ),
            {"a": narrow, "b": wide},
            {"y": dest},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_multi_destination_write(self, rng):
        a = ColumnRegion(column=1, width=5)
        b = ColumnRegion(column=2, width=5)
        dest = ColumnRegion(column=3, width=6)
        extra = ColumnRegion(column=4, width=6, domain_offset=2)
        program = single_instruction_program(
            APInstruction(
                opcode=APOpcode.ADD_OUTOFPLACE,
                dest=dest,
                src_a=a,
                src_b=b,
                extra_dests=(extra,),
            ),
            {"a": a, "b": b},
            {"y": dest, "y2": extra},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_narrow_extra_destination_keeps_stale_bits(self, rng):
        """Extra dests narrower than the instruction expose stale-bit rules."""
        a = ColumnRegion(column=1, width=5)
        b = ColumnRegion(column=2, width=5)
        dest = ColumnRegion(column=3, width=9)
        extra = ColumnRegion(column=4, width=3)
        seed_extra = APInstruction(
            opcode=APOpcode.COPY, dest=ColumnRegion(column=4, width=9), src_a=b
        )
        program = APProgram(name="stale", carry_column=0)
        program.input_columns = {"a": a, "b": b}
        program.output_columns = {"y": dest}
        program.append(seed_extra)  # leave stale bits above the extra region
        program.append(
            APInstruction(
                opcode=APOpcode.SUB_OUTOFPLACE,
                dest=dest,
                src_a=a,
                src_b=b,
                extra_dests=(extra,),
            )
        )
        run_both(program, random_inputs(program, 16, rng))

    @pytest.mark.parametrize("widths", [(5, 5), (3, 7), (9, 4)])
    def test_copy(self, rng, widths):
        src_width, dest_width = widths
        src = ColumnRegion(column=1, width=src_width)
        dest = ColumnRegion(column=2, width=dest_width)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.COPY, dest=dest, src_a=src),
            {"x": src},
            {"y": dest},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_clear(self, rng):
        region = ColumnRegion(column=1, width=6, domain_offset=1)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.CLEAR, dest=region),
            {"x": region},
            {"y": region},
        )
        run_both(program, random_inputs(program, 16, rng))

    def test_partial_rows(self, rng):
        a = ColumnRegion(column=1, width=5)
        b = ColumnRegion(column=2, width=5)
        dest = ColumnRegion(column=3, width=6)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b),
            {"a": a, "b": b},
            {"y": dest},
        )
        run_both(program, random_inputs(program, 5, rng), rows=16)


class TestFallbackLayouts:
    """Degenerate layouts route through the embedded interpreter untouched."""

    def test_copy_onto_itself(self, rng):
        region = ColumnRegion(column=1, width=5)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.COPY, dest=region, src_a=region),
            {"x": region},
            {"y": region},
        )
        run_both(program, random_inputs(program, 8, rng))

    def test_wide_words_fall_back(self, rng):
        a = ColumnRegion(column=1, width=62)
        b = ColumnRegion(column=2, width=62)
        dest = ColumnRegion(column=3, width=62)
        program = single_instruction_program(
            APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b),
            {"a": a, "b": b},
            {"y": dest},
        )
        inputs = {
            "a": rng.integers(-(2**40), 2**40, 6),
            "b": rng.integers(-(2**40), 2**40, 6),
        }
        run_both(program, inputs, rows=6)


class TestRandomizedPrograms:
    """Fuzz: whole random programs, every observable compared."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_program_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        num_instructions = int(rng.integers(8, 32))
        columns = int(rng.integers(10, 28))
        program = random_program(
            rng, num_instructions=num_instructions, columns=columns, max_width=11
        )
        rows = int(rng.integers(1, 48))
        inputs = random_inputs(program, rows, rng)
        run_both(program, inputs, rows=rows, columns=columns)

    @pytest.mark.parametrize("seed", range(6))
    def test_batched_backend_per_instruction_equivalence(self, seed):
        """The registered ``batched`` backend (per-instruction entry points
        used whenever a wave declines) matches the reference interpreter."""
        rng = np.random.default_rng(1000 + seed)
        program = random_program(rng, num_instructions=16, columns=14, max_width=9)
        rows = int(rng.integers(1, 32))
        inputs = random_inputs(program, rows, rng)
        comparison = compare_backends(
            program, inputs, rows=rows, columns=14, candidate="batched"
        )
        assert comparison.equivalent, comparison.describe()

    def test_vectorized_matches_numpy_semantics(self, rng):
        """End to end: the vectorized AP still computes exact integer math."""
        ap = AssociativeProcessor(rows=32, columns=16, backend="vectorized")
        a = rng.integers(-100, 100, 32)
        b = rng.integers(-100, 100, 32)
        assert np.array_equal(ap.add_vectors(a, b, width=9), a + b)
        assert np.array_equal(ap.sub_vectors(a, b, width=9), a - b)


class TestAcceleratorThreading:
    def test_plan_runs_inherit_accelerator_backend(self, tiny_architecture):
        from repro.arch.accelerator import Accelerator
        from repro.runtime import Scheduler

        accelerator = Accelerator(config=tiny_architecture, backend="vectorized")
        assert accelerator.backend == "vectorized"
        assert Scheduler(accelerator).backend == "vectorized"

    def test_default_backend_is_the_session_default(self, tiny_architecture):
        from repro.ap.backends import DEFAULT_BACKEND
        from repro.arch.accelerator import Accelerator

        accelerator = Accelerator(config=tiny_architecture)
        assert accelerator.backend == DEFAULT_BACKEND

    def test_env_override_selects_default(self, monkeypatch):
        from repro.ap import backends as backends_module

        monkeypatch.setenv(backends_module.BACKEND_ENV_VARIABLE, "reference")
        assert backends_module._default_backend() == "reference"
        monkeypatch.setenv(backends_module.BACKEND_ENV_VARIABLE, "no-such")
        with pytest.raises(ConfigurationError):
            backends_module._default_backend()
        monkeypatch.delenv(backends_module.BACKEND_ENV_VARIABLE)
        assert backends_module._default_backend() == "vectorized"


class TestCostModelCrosscheck:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_crosscheck_consistent(self, backend):
        from repro.perf.model import PerformanceModelConfig, crosscheck_cost_model

        result = crosscheck_cost_model(
            config=PerformanceModelConfig(execution_backend=backend)
        )
        assert result.backend == backend
        assert result.consistent

    def test_backends_measure_identical_events(self):
        from repro.perf.model import PerformanceModelConfig, crosscheck_cost_model

        runs = [
            crosscheck_cost_model(
                config=PerformanceModelConfig(execution_backend=backend)
            )
            for backend in available_backends()
        ]
        measured = {
            (run.measured_search_phases, run.measured_write_phases) for run in runs
        }
        assert len(measured) == 1


def per_instance_wave_baseline(
    programs, inputs_per_instance, rows, columns, backend="vectorized"
):
    """Ground truth of one wave: each instance alone on a fresh AP."""
    results = []
    for instance_inputs in inputs_per_instance:
        ap = AssociativeProcessor(rows=rows, columns=columns, backend=backend)
        outputs_list = []
        checksum = 0
        for program, inputs in zip(programs, instance_inputs):
            outputs = ap.run_program(program, inputs, num_rows=rows)
            converted = {}
            for name in sorted(outputs):
                values = np.asarray(outputs[name], dtype=np.int64)
                checksum += int(values.sum())
                converted[name] = values
            outputs_list.append(converted)
        results.append((ap.reset_stats(), outputs_list, checksum))
    return results


def assert_wave_matches_baseline(wave_results, baseline):
    assert len(wave_results) == len(baseline)
    for got, expected in zip(wave_results, baseline):
        expected_stats, expected_outputs, expected_checksum = expected
        assert got.stats == expected_stats
        assert got.checksum == expected_checksum
        # The stacked matrix holds every output vector in (program order,
        # sorted-name within program) row order - the bulk-reduction contract.
        flat_rows = [
            programs[name]
            for programs in expected_outputs
            for name in sorted(programs)
        ]
        assert got.outputs.shape == (
            len(flat_rows),
            len(flat_rows[0]) if flat_rows else 0,
        )
        for row, values in zip(got.outputs, flat_rows):
            assert np.array_equal(row, values)


def assert_waves_identical(left, right):
    assert len(left) == len(right)
    for one, other in zip(left, right):
        assert one.stats == other.stats
        assert one.checksum == other.checksum
        assert np.array_equal(one.outputs, other.outputs)


def staged_values(inputs, rows):
    """Stack per-instance ``[{name: vector}]`` dicts into a staged batch."""
    values = [
        {
            name: np.stack(
                [np.asarray(instance[index][name], dtype=np.int64) for instance in inputs]
            )
            for name in program_inputs
        }
        for index, program_inputs in enumerate(inputs[0])
    ]
    return StagedWaveInputs(len(inputs), rows, values=values)


def add_tile(width, columns=4):
    """One-add tile: ``y = a + b`` at the given operand width."""
    a = ColumnRegion(column=1, width=width)
    b = ColumnRegion(column=2, width=width)
    dest = ColumnRegion(column=3, width=width)
    program = single_instruction_program(
        APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b),
        {"a": a, "b": b},
        {"y": dest},
    )
    return [program], columns


class TestWaveExecution:
    """Layer-wave kernel contract: byte-identity to per-instance runs, or decline.

    ``execute_program_wave`` is the batched backend's native kernel behind
    its ``execute_wave``; every test here checks it against instances
    executed one at a time on a fresh AP (the exact semantics of the
    per-instance contract).
    """

    def _tile_inputs(self, programs, rows, instances, rng):
        return [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(instances)
        ]

    def test_multi_program_wave_matches_per_instance(self, rng):
        """Several programs back to back, several divergent instances."""
        programs = [
            random_program(rng, num_instructions=10, columns=12, max_width=8,
                           name=f"slice{index}")
            for index in range(3)
        ]
        rows = 9
        inputs = self._tile_inputs(programs, rows, instances=4, rng=rng)
        wave = execute_program_wave(
            programs, staged_values(inputs, rows), rows, columns=12
        )
        if wave is None:
            pytest.skip("fuzzed program drew a shape outside the wave subset")
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline(programs, inputs, rows, 12)
        )

    def test_fuzzed_waves_accept_or_match(self):
        """Across many seeds the wave either declines or is byte-identical -
        and it must accept a healthy share (the compiler-emitted shapes)."""
        accepted = 0
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            columns = int(rng.integers(8, 20))
            programs = [
                random_program(rng, num_instructions=8, columns=columns,
                               max_width=8, name=f"p{index}")
                for index in range(int(rng.integers(1, 4)))
            ]
            rows = int(rng.integers(1, 24))
            inputs = self._tile_inputs(
                programs, rows, instances=int(rng.integers(1, 4)), rng=rng
            )
            wave = execute_program_wave(
                programs, staged_values(inputs, rows), rows, columns=columns
            )
            if wave is None:
                continue
            accepted += 1
            assert_wave_matches_baseline(
                wave, per_instance_wave_baseline(programs, inputs, rows, columns)
            )
        assert accepted >= 5, f"wave accepted only {accepted}/10 fuzzed tiles"

    @pytest.mark.parametrize("width", [8, 30, 34])
    def test_narrow_and_wide_word_paths(self, rng, width):
        """Both packed-arithmetic dtypes (int32 below 31 bits, int64 above)
        reproduce the interpreter exactly, including near the value bounds."""
        programs, columns = add_tile(width)
        rows = 6
        bound = 2 ** (width - 1) - 1
        inputs = []
        for instance in range(3):
            values_a = rng.integers(-bound, bound, rows)
            values_b = rng.integers(-bound // 2, bound // 2, rows)
            values_a[0], values_b[0] = bound // 2, bound // 2 - 1
            inputs.append([{"a": values_a, "b": values_b}])
        wave = execute_program_wave(
            programs, staged_values(inputs, rows), rows, columns
        )
        assert wave is not None
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline(programs, inputs, rows, columns)
        )

    def test_per_instance_stats_diverge_with_data(self):
        """Write-phase counters are data-dependent and tracked per instance."""
        programs, columns = add_tile(6)
        rows = 8
        busy = [{"a": np.full(rows, 17), "b": np.full(rows, 13)}]
        idle = [{"a": np.zeros(rows, dtype=np.int64),
                 "b": np.zeros(rows, dtype=np.int64)}]
        wave = execute_program_wave(
            programs, staged_values([busy, idle], rows), rows, columns
        )
        assert wave is not None
        busy_result, idle_result = wave
        assert busy_result.stats.write_phases > idle_result.stats.write_phases
        assert busy_result.checksum != idle_result.checksum
        # Data-independent counters stay identical across instances.
        assert busy_result.stats.search_phases == idle_result.stats.search_phases

    def test_chunked_wave_byte_identical(self, rng, monkeypatch):
        """Chunking (bounded stacked state) must not change any observable."""
        from repro.ap.backends import batched as batched_module

        programs, columns = add_tile(7)
        rows = 5
        staged = staged_values(
            self._tile_inputs(programs, rows, instances=6, rng=rng), rows
        )
        whole = execute_program_wave(programs, staged, rows, columns)
        monkeypatch.setattr(batched_module, "_MAX_WAVE_STATE_BYTES", 1)
        chunked = execute_program_wave(programs, staged, rows, columns)
        assert whole is not None and chunked is not None
        assert_waves_identical(whole, chunked)

    def test_empty_wave_returns_empty(self):
        programs, columns = add_tile(5)
        empty = StagedWaveInputs(0, 4, values=[{}])
        assert execute_program_wave(programs, empty, 4, columns) == []

    def test_declines_degenerate_geometry(self, rng):
        programs, columns = add_tile(5)
        staged = staged_values(
            self._tile_inputs(programs, 4, instances=1, rng=rng), 4
        )
        assert execute_program_wave(programs, staged, 0, columns) is None
        assert execute_program_wave(programs, staged, 4, 0) is None

    def test_declines_carry_column_mismatch(self, rng):
        programs, columns = add_tile(5)
        staged = staged_values(
            self._tile_inputs(programs, 4, instances=1, rng=rng), 4
        )
        assert (
            execute_program_wave(programs, staged, 4, columns, carry_column=1)
            is None
        )

    def test_declines_malformed_inputs(self, rng):
        """Wrong-length, out-of-range, missing or miscounted input vectors
        all force the per-instance fallback instead of corrupting the wave."""
        programs, columns = add_tile(5)
        rows = 4
        good = staged_values(
            self._tile_inputs(programs, rows, instances=2, rng=rng), rows
        ).values[0]

        def staged(**operands):
            return StagedWaveInputs(2, rows, values=[{**good, **operands}])

        wrong_length = staged(a=np.zeros((2, rows + 1), dtype=np.int64))
        assert execute_program_wave(programs, wrong_length, rows, columns) is None

        out_of_range = np.array(good["a"])
        out_of_range[1] = 2**10
        assert (
            execute_program_wave(programs, staged(a=out_of_range), rows, columns)
            is None
        )

        missing_name = StagedWaveInputs(2, rows, values=[{"a": good["a"]}])
        assert execute_program_wave(programs, missing_name, rows, columns) is None

        miscounted = StagedWaveInputs(2, rows, values=[])
        assert execute_program_wave(programs, miscounted, rows, columns) is None

        non_integer = staged(a=np.zeros((2, rows)) + 0.5)
        assert execute_program_wave(programs, non_integer, rows, columns) is None


class TestStagedWaveExecution:
    """Host-staged operand forms and the ``execute_wave`` device contract.

    The host dataflow hands every backend one :class:`StagedWaveInputs` per
    layer group; its integer batches must reproduce per-instance execution
    bit for bit on every backend, and malformed staging must make the
    batched kernel decline (return ``None``) rather than corrupt the wave.
    """

    def _inputs(self, programs, rows, instances, rng):
        return [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(instances)
        ]

    def test_staged_values_match_per_instance(self, rng):
        programs, columns = add_tile(7)
        rows = 6
        inputs = self._inputs(programs, rows, 4, rng)
        wave = execute_program_wave(
            programs, staged_values(inputs, rows), rows, columns
        )
        assert wave is not None
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline(programs, inputs, rows, columns)
        )

    def test_staging_plan_accepts_wave_eligible_tile(self):
        programs, columns = add_tile(7)
        assert wave_staging_plan(programs, columns) is True

    def test_staging_plan_declines_bad_geometry(self):
        programs, _ = add_tile(7)
        assert wave_staging_plan(programs, 0) is False
        assert wave_staging_plan(programs, 4, carry_column=3) is False

    def test_staged_chunking_byte_identical(self, rng, monkeypatch):
        from repro.ap.backends import batched as batched_module

        programs, columns = add_tile(7)
        rows = 5
        staged = staged_values(self._inputs(programs, rows, 6, rng), rows)
        whole = execute_program_wave(programs, staged, rows, columns)
        monkeypatch.setattr(batched_module, "_MAX_WAVE_STATE_BYTES", 1)
        chunked = execute_program_wave(programs, staged, rows, columns)
        assert whole is not None and chunked is not None
        assert_waves_identical(whole, chunked)

    def test_staged_malformed_declines(self, rng):
        """Shape, dtype, range and arity mismatches all decline cleanly."""
        programs, columns = add_tile(5)
        rows = 4
        good = staged_values(self._inputs(programs, rows, 2, rng), rows)

        bad_shape = StagedWaveInputs(
            2, rows, values=[{**good.values[0], "a": np.zeros((2, rows + 1))}]
        )
        assert execute_program_wave(programs, bad_shape, rows, columns) is None

        out_of_range = StagedWaveInputs(
            2,
            rows,
            values=[{**good.values[0], "a": np.full((2, rows), 2**10)}],
        )
        assert (
            execute_program_wave(programs, out_of_range, rows, columns) is None
        )

        missing = StagedWaveInputs(
            2, rows, values=[{"a": good.values[0]["a"]}]
        )
        assert execute_program_wave(programs, missing, rows, columns) is None

        non_integer = StagedWaveInputs(
            2, rows, values=[{**good.values[0], "a": np.zeros((2, rows)) + 0.5}]
        )
        assert (
            execute_program_wave(programs, non_integer, rows, columns) is None
        )

    @pytest.mark.parametrize("backend", ["reference", "vectorized", "batched"])
    def test_execute_wave_matches_per_instance(self, rng, backend):
        """Every backend's ``execute_wave`` is per-instance execution."""
        programs = [
            random_program(rng, num_instructions=10, columns=12, max_width=8,
                           name=f"slice{index}")
            for index in range(3)
        ]
        columns, rows = 12, 7
        inputs = self._inputs(programs, rows, 5, rng)
        staged = staged_values(inputs, rows)
        wave = resolve_backend(backend).execute_wave(programs, staged, rows, columns)
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline(programs, inputs, rows, columns)
        )

    @pytest.mark.parametrize("backend", ["reference", "vectorized", "batched"])
    def test_execute_wave_raises_range_errors(self, rng, backend):
        """Out-of-range operands reach the per-instance semantics' errors."""
        programs, columns = add_tile(5)
        rows = 4
        good = staged_values(self._inputs(programs, rows, 2, rng), rows)
        out_of_range = StagedWaveInputs(
            2, rows, values=[{**good.values[0], "a": np.full((2, rows), 2**10)}]
        )
        with pytest.raises(QuantizationError):
            resolve_backend(backend).execute_wave(programs, out_of_range, rows, columns)

    def test_batched_decline_falls_back_per_instance(self, rng, monkeypatch):
        """A kernel decline runs per instance: identical, one decline event."""
        from repro.ap.backends import batched as batched_module

        programs, columns = add_tile(7)
        rows = 6
        inputs = self._inputs(programs, rows, 3, rng)
        monkeypatch.setattr(
            batched_module, "compile_program_wave", lambda *args: None
        )
        with telemetry.capture() as tracer:
            wave = BatchedBackend.execute_wave(
                programs, staged_values(inputs, rows), rows, columns
            )
            events = tracer.drain()
        assert_wave_matches_baseline(
            wave, per_instance_wave_baseline(programs, inputs, rows, columns)
        )
        declines = [event for event in events if event.name == "backend.wave_decline"]
        assert len(declines) == 1
        assert declines[0].args["reason"] == "program-lowering"
        assert sum(event.name == "device.tile" for event in events) == 3


# ----------------------------------------------------------------------
# Generated differential coverage of the level-fused wave kernel
# ----------------------------------------------------------------------
#: Every non-carry column holds regions at two domain offsets, so operands
#: of one column share a register word; the low one has two widths, so the
#: wider view reads the bits a narrow write leaves stale.
_HIGH_OFFSET = 24


@st.composite
def _wave_region_pool(draw, columns):
    pool = []
    for column in range(1, columns):
        for offset, views in ((0, 2), (_HIGH_OFFSET, 1)):
            widths = draw(
                st.lists(st.integers(1, 8), min_size=views, max_size=views, unique=True)
            )
            pool.extend(
                ColumnRegion(column=column, width=width, domain_offset=offset)
                for width in widths
            )
    return pool


def _some_of(regions, max_size):
    """Up to ``max_size`` of ``regions`` on distinct columns."""
    if not regions:
        return st.just([])
    return st.lists(
        st.sampled_from(regions),
        max_size=max_size,
        unique_by=lambda region: region.column,
    )


@st.composite
def _wave_instruction(draw, pool, carry_regions):
    kind = draw(
        st.sampled_from(
            ["add", "sub", "add_inplace", "sub_inplace", "copy", "clear"]
        )
    )
    if kind in ("copy", "clear"):
        targets = pool + carry_regions
        dest = draw(st.sampled_from(targets))
        if kind == "clear":
            extra = draw(st.lists(st.sampled_from(targets), max_size=2))
            return APInstruction(
                opcode=APOpcode.CLEAR, dest=dest, extra_dests=tuple(extra)
            )
        src = draw(
            st.sampled_from([r for r in targets if r.column != dest.column])
        )
        extras = draw(
            _some_of([r for r in pool if r.column not in (src.column, dest.column)], 1)
        )
        return APInstruction(
            opcode=APOpcode.COPY, dest=dest, src_a=src, extra_dests=tuple(extras)
        )
    src_a = draw(st.sampled_from(pool))
    src_b = draw(st.sampled_from([r for r in pool if r.column != src_a.column]))
    if kind.endswith("inplace"):
        opcode = APOpcode.ADD_INPLACE if kind == "add_inplace" else APOpcode.SUB_INPLACE
        # In-place adds may overwrite either source (the src_a swap).
        over_a = kind == "add_inplace" and draw(st.booleans())
        return APInstruction(
            opcode=opcode, dest=src_a if over_a else src_b, src_a=src_a, src_b=src_b
        )
    sources = (src_a.column, src_b.column)
    dest = draw(st.sampled_from([r for r in pool if r.column not in sources]))
    # Extra destinations on distinct columns; narrower ones exercise the
    # stale-bit blend above their width.
    extras = draw(
        _some_of([r for r in pool if r.column not in sources + (dest.column,)], 2)
    )
    opcode = APOpcode.ADD_OUTOFPLACE if kind == "add" else APOpcode.SUB_OUTOFPLACE
    return APInstruction(
        opcode=opcode, dest=dest, src_a=src_a, src_b=src_b, extra_dests=tuple(extras)
    )


@st.composite
def _wave_program(draw, pool, carry_regions, name):
    program = APProgram(name=name, carry_column=0)
    inputs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    program.input_columns = {f"x{index}": region for index, region in enumerate(inputs)}
    for _ in range(draw(st.integers(1, 10))):
        program.append(draw(_wave_instruction(pool, carry_regions)))
    # Every region is read back (so any stale or misplaced bit shows), a few
    # names alias one region, any may be negated, and the carry column is
    # readable like any other.
    outputs = pool + carry_regions + draw(
        st.lists(st.sampled_from(pool + carry_regions), max_size=3)
    )
    program.output_columns = {
        f"y{index}": region for index, region in enumerate(outputs)
    }
    program.output_negated = {
        name: draw(st.booleans()) for name in program.output_columns
    }
    return program


@st.composite
def _wave_case(draw):
    columns = draw(st.integers(4, 7))
    pool = draw(_wave_region_pool(columns))
    carry_regions = [
        ColumnRegion(column=0, width=1),
        ColumnRegion(column=0, width=draw(st.integers(1, 4)), domain_offset=40),
    ]
    programs = [
        draw(_wave_program(pool, carry_regions, f"p{index}"))
        for index in range(draw(st.integers(1, 3)))
    ]
    rows = draw(st.integers(1, 6))
    instances = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return programs, columns, rows, instances, seed


class TestLevelFusedWaveDifferential:
    """Generated programs that hit every level hazard, run on the batched
    wave and on the reference interpreter per instance.

    The generator draws RAW chains and WAR pairs over few columns, two
    operands per column at different domain offsets, in-place ops writing
    over ``src_a``, narrow extra destinations, COPY and CLEAR (also on the
    carry column), aliased and negated output names, and up to three
    programs back to back (ports carry over).
    """

    @settings(max_examples=60, deadline=None)
    @given(case=_wave_case())
    def test_matches_reference_per_instance(self, case):
        from repro.ap.backends import batched as batched_module

        programs, columns, rows, instances, seed = case
        rng = np.random.default_rng(seed)
        inputs = [
            [random_inputs(program, rows, rng) for program in programs]
            for _ in range(instances)
        ]
        staged = staged_values(inputs, rows)
        baseline = per_instance_wave_baseline(
            programs, inputs, rows, columns, backend="reference"
        )
        wave = execute_program_wave(programs, staged, rows, columns)
        assert wave is not None, "generated shapes are all wave-eligible"
        assert_wave_matches_baseline(wave, baseline)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batched_module, "_MAX_WAVE_STATE_BYTES", 1)
            chunked = execute_program_wave(programs, staged, rows, columns)
        assert chunked is not None
        assert_wave_matches_baseline(chunked, baseline)


    def test_narrow_extra_keeps_stale_bits_in_unfired_rows(self, rng):
        """A wider view of a narrow extra destination's column reads the
        stale bits the blend must keep above the extra's width."""
        wide = ColumnRegion(column=3, width=8)
        program = single_instruction_program(
            APInstruction(
                opcode=APOpcode.ADD_OUTOFPLACE,
                dest=ColumnRegion(column=4, width=6),
                src_a=ColumnRegion(column=1, width=5),
                src_b=ColumnRegion(column=2, width=5),
                extra_dests=(ColumnRegion(column=3, width=2),),
            ),
            {"a": ColumnRegion(column=1, width=5), "b": ColumnRegion(column=2, width=5),
             "old": wide},
            {"wide": wide},
        )
        rows = 16
        inputs = [[random_inputs(program, rows, rng)] for _ in range(3)]
        wave = execute_program_wave([program], staged_values(inputs, rows), rows, 6)
        assert wave is not None
        assert_wave_matches_baseline(
            wave,
            per_instance_wave_baseline([program], inputs, rows, 6, backend="reference"),
        )


def _levels(instructions, inputs=None, outputs=None, columns=8):
    """Level op indices of a one-program wave lowering."""
    from repro.ap.backends.batched import compile_program_wave

    program = APProgram(name="levels", carry_column=0)
    program.input_columns = inputs or {}
    program.output_columns = outputs or {}
    for instruction in instructions:
        program.append(instruction)
    lowered = compile_program_wave(program, columns, 64)
    assert lowered is not None
    return [list(level) for level in lowered.levels], lowered


def _col(column, width=6, offset=0):
    return ColumnRegion(column=column, width=width, domain_offset=offset)


def _add(dest, a, b):
    return APInstruction(
        opcode=APOpcode.ADD_OUTOFPLACE, dest=_col(dest), src_a=_col(a), src_b=_col(b)
    )


class TestLevelBuilder:
    """Hazard-free level grouping of the wave lowering."""

    def test_independent_ops_share_one_level(self):
        levels, _ = _levels([_add(3, 1, 2), _add(4, 1, 2), _add(5, 1, 2)])
        assert levels == [[0, 1, 2]]

    def test_raw_chain_spans_one_level_per_op(self):
        chain = [_add(3, 1, 2), _add(4, 3, 2), _add(5, 4, 2), _add(6, 5, 1)]
        levels, _ = _levels(chain)
        assert levels == [[0], [1], [2], [3]]

    def test_war_shares_a_level(self):
        # Op 1 overwrites column 1 after op 0 read it: operands are gathered
        # before anything is scattered, so both run in one level.
        levels, _ = _levels([_add(3, 1, 2), _add(1, 4, 5)])
        assert levels == [[0, 1]]

    def test_waw_splits_levels(self):
        levels, _ = _levels([_add(3, 1, 2), _add(3, 4, 5)])
        assert levels == [[0], [1]]

    def test_same_column_other_offset_is_a_hazard(self):
        high = _col(1, offset=_HIGH_OFFSET)
        copy = APInstruction(opcode=APOpcode.COPY, dest=high, src_a=_col(4))
        levels, _ = _levels([copy, _add(3, 1, 2)])
        assert levels == [[0], [1]]

    def test_carry_column_adds_no_hazard_between_arith_ops(self):
        inplace = APInstruction(
            opcode=APOpcode.SUB_INPLACE, dest=_col(5), src_a=_col(4), src_b=_col(5)
        )
        levels, lowered = _levels([_add(3, 1, 2), inplace, _add(6, 1, 2)])
        assert levels == [[0, 1, 2]]
        assert lowered.survivors == (2,)

    def test_copy_from_carry_column_waits_for_the_carry(self):
        carry_copy = APInstruction(
            opcode=APOpcode.COPY, dest=_col(6, width=1), src_a=_col(0, width=1)
        )
        levels, lowered = _levels([_add(3, 1, 2), _add(4, 1, 2), carry_copy])
        assert levels == [[0, 1], [2]]
        assert lowered.survivors == (1,)

    def test_clear_of_carry_column_orders_the_arith_around_it(self):
        clear = APInstruction(opcode=APOpcode.CLEAR, dest=_col(0, width=1))
        levels, lowered = _levels([_add(3, 1, 2), clear, _add(4, 1, 2)])
        assert levels == [[0], [1], [2]]
        assert lowered.survivors == (0, 2)
        without, _ = _levels([_add(3, 1, 2), _add(4, 1, 2)])
        assert without == [[0, 1]]

    def test_carry_output_reads_the_last_op_in_program_order(self, rng):
        """Op 0 runs in a later level than op 2, but op 2 is the last
        arithmetic op, so its carry-out is what an output on the carry
        column reads - exactly as on the interpreter."""
        instructions = [_add(3, 1, 2), _add(4, 3, 2), _add(5, 1, 2)]
        inputs = {"a": _col(1), "b": _col(2)}
        outputs = {"carry": _col(0, width=1), "y": _col(4)}
        levels, lowered = _levels(instructions, inputs, outputs)
        assert levels == [[0, 2], [1]]
        assert lowered.survivors == (2,)
        program = APProgram(name="carry-out", carry_column=0)
        program.input_columns, program.output_columns = inputs, outputs
        for instruction in instructions:
            program.append(instruction)
        rows = 8
        batch = [[random_inputs(program, rows, rng)] for _ in range(3)]
        wave = execute_program_wave([program], staged_values(batch, rows), rows, 8)
        assert wave is not None
        assert_wave_matches_baseline(
            wave,
            per_instance_wave_baseline([program], batch, rows, 8, backend="reference"),
        )

    def test_resnet18_level_count(self):
        """Pins the fusion the compiler hands the kernel: a later compiler
        change that moves it shows up here (and in the ``backend.wave``
        span's ``ops``/``levels`` arguments, which this reads)."""
        from repro.session import Session

        session = Session(
            model="resnet18", width=1 / 8, rng=7, bits=4, backend="batched"
        )
        session.compile().deploy()
        images = np.random.default_rng(0).random((1,) + tuple(session.input_shape))
        with telemetry.capture() as tracer:
            session.infer(images)
            events = tracer.drain()
        waves = list(telemetry.iter_spans(events, "backend.wave"))
        assert len(waves) == 30
        assert sum(event.args["ops"] for event in waves) == 14733
        assert sum(event.args["levels"] for event in waves) == 1674
