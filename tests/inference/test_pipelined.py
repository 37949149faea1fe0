"""Pipelined inference engine: byte-identity, overlap, teardown safety."""

import numpy as np
import pytest

from repro.errors import ModelDefinitionError
from repro.inference.engine import BatchedInference
from repro.inference.reference import quantized_reference_forward


def _engines(model, shape, executor="serial", workers=None, **kwargs):
    sync = BatchedInference(
        model, shape, bits=4, executor=executor, workers=workers, **kwargs
    )
    pipe = BatchedInference(
        model,
        shape,
        bits=4,
        executor=executor,
        workers=workers,
        pipeline=True,
        **kwargs,
    )
    return sync, pipe


class TestPipelinedByteIdentity:
    @pytest.mark.parametrize(
        "executor,workers",
        [("serial", None), ("thread", 2), ("parallel", 2)],
    )
    def test_matches_layer_sync_and_reference(
        self, tiny_cnn, images_rng, executor, workers
    ):
        model, shape = tiny_cnn
        images = images_rng.normal(size=(4,) + shape)
        sync, pipe = _engines(model, shape, executor=executor, workers=workers)
        try:
            baseline = sync.run(images)
            pipelined = pipe.run(images)
        finally:
            sync.close()
            pipe.close()

        reference = quantized_reference_forward(
            model, images, input_shape=shape, bits=4
        )
        assert pipelined.execution.mode == "pipelined"
        assert baseline.execution.mode == "layer-sync"
        assert np.array_equal(pipelined.logits, baseline.logits)
        assert np.array_equal(pipelined.logits, reference)
        assert pipelined.checksum == baseline.checksum
        assert pipelined.execution.total_stats == baseline.execution.total_stats
        for expected, actual in zip(
            baseline.execution.layers, pipelined.execution.layers
        ):
            assert actual.stats == expected.stats
            assert actual.energy == expected.energy
            assert actual.latency == expected.latency

    @pytest.mark.parametrize("backend", ["reference", "vectorized", "batched"])
    def test_backends_agree(self, tiny_cnn, images_rng, backend):
        model, shape = tiny_cnn
        images = images_rng.normal(size=(2,) + shape)
        sync, pipe = _engines(model, shape, backend=backend)
        try:
            baseline = sync.run(images)
            pipelined = pipe.run(images)
        finally:
            sync.close()
            pipe.close()
        assert np.array_equal(pipelined.logits, baseline.logits)
        assert pipelined.execution.total_stats == baseline.execution.total_stats

    def test_in_flight_cap_equivalence(self, tiny_cnn, images_rng):
        """Depth 1 (fully serialized images) still matches full depth."""
        model, shape = tiny_cnn
        images = images_rng.normal(size=(3,) + shape)
        deep = BatchedInference(model, shape, bits=4, pipeline=True)
        shallow = BatchedInference(
            model, shape, bits=4, pipeline=True, pipeline_depth=1
        )
        try:
            full = deep.run(images)
            serialized = shallow.run(images)
        finally:
            deep.close()
            shallow.close()
        assert np.array_equal(full.logits, serialized.logits)
        assert full.execution.total_stats == serialized.execution.total_stats
        for trace in shallow.tracker.trace().values():
            assert trace.max_in_flight <= 1

    def test_micro_batch_caps_in_flight_images(self, tiny_cnn, images_rng):
        model, shape = tiny_cnn
        images = images_rng.normal(size=(4,) + shape)
        engine = BatchedInference(model, shape, bits=4, pipeline=True)
        try:
            chunked = engine.run(images, batch=2)
            unchunked = engine.run(images)
        finally:
            engine.close()
        assert np.array_equal(chunked.logits, unchunked.logits)

    def test_activation_store_matches_layer_sync(self, tiny_cnn, images_rng):
        model, shape = tiny_cnn
        images = images_rng.normal(size=(3,) + shape)
        sync, pipe = _engines(model, shape, keep_activations=True)
        try:
            baseline = sync.run(images)
            pipelined = pipe.run(images)
        finally:
            sync.close()
            pipe.close()
        sync_layers = baseline.store.layers()
        pipe_layers = pipelined.store.layers()
        assert [entry.name for entry in pipe_layers] == [
            entry.name for entry in sync_layers
        ]
        for expected, actual in zip(sync_layers, pipe_layers):
            assert np.array_equal(actual.steps, expected.steps)
            assert actual.input_bits == expected.input_bits
            assert np.array_equal(actual.input_codes, expected.input_codes)
            assert np.array_equal(actual.output_int, expected.output_int)

    def test_residual_topology_pipelines(self, resnet18_narrow, images_rng):
        """Residual host-side adds stay correct under per-image drivers."""
        model, shape = resnet18_narrow
        images = images_rng.normal(size=(2,) + shape)
        sync, pipe = _engines(model, shape, executor="thread", workers=2)
        try:
            baseline = sync.run(images)
            pipelined = pipe.run(images)
        finally:
            sync.close()
            pipe.close()
        assert np.array_equal(pipelined.logits, baseline.logits)
        assert pipelined.execution.total_stats == baseline.execution.total_stats


class TestPipelinedLifecycle:
    def test_empty_batch_rejected(self, tiny_cnn):
        model, shape = tiny_cnn
        engine = BatchedInference(model, shape, bits=4, pipeline=True)
        try:
            with pytest.raises(ModelDefinitionError, match="at least one image"):
                engine.run(np.zeros((0,) + shape))
        finally:
            engine.close()

    def test_invalid_depth_rejected(self, tiny_cnn):
        model, shape = tiny_cnn
        with pytest.raises(ModelDefinitionError, match="pipeline_depth"):
            BatchedInference(model, shape, bits=4, pipeline_depth=0)

    def test_driver_error_restores_model_and_closes_clean(
        self, tiny_cnn, images_rng
    ):
        """A failing request unwinds the patch and leaves no stuck workers."""
        model, shape = tiny_cnn
        engine = BatchedInference(
            model, shape, bits=4, executor="thread", workers=2, pipeline=True
        )
        bad = images_rng.normal(size=(2, 99))  # wrong shape
        with pytest.raises(ModelDefinitionError):
            engine.run(bad)
        # The patch was unwound: plain forwards work again.
        good = images_rng.normal(size=(2,) + shape)
        result = engine.run(good)
        assert result.images == 2
        engine.close()
        engine.close()  # idempotent

    def test_close_is_exception_safe(self, tiny_cnn, monkeypatch):
        model, shape = tiny_cnn
        engine = BatchedInference(model, shape, bits=4)
        calls = {"closed": 0}

        def exploding_close():
            calls["closed"] += 1
            raise RuntimeError("pool teardown failed")

        monkeypatch.setattr(engine.executor, "close", exploding_close)
        with pytest.raises(RuntimeError, match="pool teardown failed"):
            engine.close()
        # The failure propagated once; a second close is a no-op.
        engine.close()
        assert calls["closed"] == 1
