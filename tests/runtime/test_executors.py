"""Executor equivalence: serial / parallel / thread, reference / vectorized."""

import numpy as np
import pytest

from repro.arch.accelerator import Accelerator
from repro.core.compiler import CompilerConfig, compile_model
from repro.errors import ConfigurationError
from repro.runtime import build_execution_plan
from repro.runtime.executors import (
    ParallelExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    generate_tile_inputs,
    resolve_executor,
)


@pytest.fixture(scope="module")
def small_plan(tiny_architecture_module):
    """A compiled + planned two-layer model shared by the equivalence tests."""
    from repro.nn.stats import ConvLayerSpec
    from repro.nn.ternary import synthetic_ternary_weights

    specs = [
        ConvLayerSpec(
            name="conv_a",
            weights=synthetic_ternary_weights((6, 3, 3, 3), 0.5, rng=11),
            input_height=8,
            input_width=8,
            padding=1,
        ),
        ConvLayerSpec(
            name="conv_b",
            weights=synthetic_ternary_weights((4, 6, 3, 3), 0.5, rng=12),
            input_height=8,
            input_width=8,
            padding=1,
        ),
    ]
    config = CompilerConfig(activation_bits=4, architecture=tiny_architecture_module)
    compiled = compile_model(specs, config, name="pair", emit_programs=True)
    accelerator = Accelerator(tiny_architecture_module)
    return build_execution_plan(compiled, accelerator=accelerator, base_seed=42)


@pytest.fixture(scope="module")
def tiny_architecture_module():
    from repro.arch.config import APConfig, ArchitectureConfig
    from repro.rtm.timing import RTMTechnology

    return ArchitectureConfig(
        ap=APConfig(rows=64, columns=64, reserved_columns=2),
        aps_per_tile=2,
        tiles_per_bank=2,
        num_banks=1,
        technology=RTMTechnology(domains_per_nanowire=64),
        activation_bits=4,
    )


def _execute(plan, architecture, executor, workers=None, backend="vectorized"):
    accelerator = Accelerator(architecture, backend=backend)
    return accelerator.execute_plan(plan, executor=executor, workers=workers)


class TestRegistry:
    def test_available_executors(self):
        assert available_executors() == ["parallel", "serial", "thread"]

    def test_resolve_by_name_class_and_instance(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor(ParallelExecutor, workers=2), ParallelExecutor)
        instance = ThreadExecutor(workers=2)
        assert resolve_executor(instance) is instance

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor("vectorized")
        with pytest.raises(ConfigurationError):
            resolve_executor(3.14)

    def test_instance_with_conflicting_workers_rejected(self):
        instance = ParallelExecutor(workers=2)
        with pytest.raises(ConfigurationError):
            resolve_executor(instance, workers=8)
        assert resolve_executor(instance, workers=2) is instance
        assert resolve_executor(instance) is instance

    def test_worker_defaults(self):
        assert SerialExecutor(workers=8).workers == 1
        assert ParallelExecutor(workers=3).workers == 3
        assert ParallelExecutor(workers=None).workers >= 1


class TestDeterministicInputs:
    def test_same_seed_same_inputs(self, small_plan):
        tile = small_plan.layers[0].tiles[0]
        program = tile.programs[0]
        first = generate_tile_inputs(program, tile.rows, tile.input_seed, 4, False)
        second = generate_tile_inputs(program, tile.rows, tile.input_seed, 4, False)
        assert set(first) == set(program.input_columns)
        for name in first:
            assert np.array_equal(first[name], second[name])
            assert first[name].min() >= 0
            assert first[name].max() < 16

    def test_signed_range(self, small_plan):
        tile = small_plan.layers[0].tiles[0]
        program = tile.programs[0]
        inputs = generate_tile_inputs(program, tile.rows, 7, 4, True)
        for values in inputs.values():
            assert values.min() >= -8
            assert values.max() < 8


class TestExecutorEquivalence:
    """The acceptance contract: byte-identical aggregated CAMStats."""

    def test_serial_vs_parallel(self, small_plan, tiny_architecture_module):
        serial = _execute(small_plan, tiny_architecture_module, "serial")
        parallel = _execute(small_plan, tiny_architecture_module, "parallel", workers=2)
        assert serial.total_stats == parallel.total_stats
        assert serial.checksum == parallel.checksum
        for left, right in zip(serial.layers, parallel.layers):
            assert left.stats == right.stats
            assert left.checksum == right.checksum

    def test_serial_vs_thread(self, small_plan, tiny_architecture_module):
        serial = _execute(small_plan, tiny_architecture_module, "serial")
        threaded = _execute(small_plan, tiny_architecture_module, "thread", workers=2)
        assert serial.total_stats == threaded.total_stats
        assert serial.checksum == threaded.checksum

    def test_reference_vs_vectorized(self, small_plan, tiny_architecture_module):
        vectorized = _execute(small_plan, tiny_architecture_module, "serial",
                              backend="vectorized")
        reference = _execute(small_plan, tiny_architecture_module, "serial",
                             backend="reference")
        assert vectorized.total_stats == reference.total_stats
        assert vectorized.checksum == reference.checksum

    def test_repeated_runs_identical(self, small_plan, tiny_architecture_module):
        first = _execute(small_plan, tiny_architecture_module, "serial")
        second = _execute(small_plan, tiny_architecture_module, "serial")
        assert first.total_stats == second.total_stats
        assert first.checksum == second.checksum

    def test_results_preserve_tile_order(self, small_plan, tiny_architecture_module):
        executor = resolve_executor("parallel", workers=2)
        try:
            tiles = small_plan.layers[0].tiles
            results = executor.run(
                tiles,
                small_plan.required_columns,
                backend="vectorized",
                technology=tiny_architecture_module.technology,
            )
            assert [result.tile_index for result in results] == list(range(len(tiles)))
            assert [result.address for result in results] == [
                tuple(tile.address) for tile in tiles
            ]
        finally:
            executor.close()


class TestMapWave:
    """``map_wave`` splits per-instance backends into contiguous chunks."""

    @staticmethod
    def _wave(instances=7, rows=5):
        from repro.ap.backends import StagedWaveInputs
        from repro.ap.backends.harness import random_inputs
        from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion

        a = ColumnRegion(column=1, width=6)
        b = ColumnRegion(column=2, width=6)
        dest = ColumnRegion(column=3, width=6)
        program = APProgram(name="add", carry_column=0)
        program.input_columns = {"a": a, "b": b}
        program.output_columns = {"y": dest}
        program.append(
            APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b)
        )
        rng = np.random.default_rng(5)
        inputs = [random_inputs(program, rows, rng) for _ in range(instances)]
        staged = StagedWaveInputs(
            instances,
            rows,
            values=[{name: np.stack([i[name] for i in inputs]) for name in ("a", "b")}],
        )
        return [program], staged, rows

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("executor", ["thread", "parallel"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunked_pool_matches_serial(self, backend, executor, workers):
        programs, staged, rows = self._wave()
        expected = SerialExecutor().map_wave(backend, programs, staged, rows, 8)
        pool = resolve_executor(executor, workers=workers)
        try:
            results = pool.map_wave(backend, programs, staged, rows, 8)
        finally:
            pool.close()
        assert len(results) == staged.instances == 7
        for got, want in zip(results, expected):
            assert got.stats == want.stats
            assert got.checksum == want.checksum
            assert np.array_equal(got.outputs, want.outputs)

    def test_native_wave_runs_in_calling_thread(self, monkeypatch):
        programs, staged, rows = self._wave()
        pool = resolve_executor("thread", workers=2)

        def no_pool(*args, **kwargs):
            raise AssertionError("a native wave must not fan out over the pool")

        monkeypatch.setattr(pool, "map_tasks", no_pool)
        try:
            native = pool.map_wave("batched", programs, staged, rows, 8)
        finally:
            pool.close()
        expected = SerialExecutor().map_wave("vectorized", programs, staged, rows, 8)
        for got, want in zip(native, expected):
            assert got.stats == want.stats
            assert np.array_equal(got.outputs, want.outputs)
