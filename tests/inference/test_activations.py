"""Unit tests of the activation quantization / lowering / buffering layer."""

import numpy as np
import pytest

from repro.errors import ModelDefinitionError
from repro.inference.activations import (
    ActivationStore,
    dequantize_batch,
    lower_batch_rows,
    lower_input_rows,
    quantize_batch,
)
from repro.nn.im2col import im2col


class TestQuantizeBatch:
    def test_per_image_independence(self, rng):
        """Each image's codes depend only on that image."""
        images = rng.uniform(0.0, 1.0, size=(3, 2, 4, 4))
        codes_all, steps_all = quantize_batch(images, bits=4)
        codes_one, steps_one = quantize_batch(images[1:2], bits=4)
        assert np.array_equal(codes_all[1], codes_one[0])
        assert steps_all[1] == steps_one[0]

    def test_codes_within_range(self, rng):
        images = rng.normal(size=(2, 3, 5, 5)) * 100.0
        codes, _ = quantize_batch(images, bits=4)
        assert codes.min() >= 0 and codes.max() <= 15
        signed_codes, _ = quantize_batch(images, bits=4, signed=True)
        assert signed_codes.min() >= -8 and signed_codes.max() <= 7

    def test_rejects_unbatched(self):
        with pytest.raises(ModelDefinitionError):
            quantize_batch(np.zeros(8), bits=4)

    def test_dequantize_scales_per_image(self):
        codes = np.ones((2, 3), dtype=np.int64)
        steps = np.array([0.5, 2.0])
        values = dequantize_batch(codes, steps, scale=2.0)
        assert np.allclose(values[0], 1.0)
        assert np.allclose(values[1], 4.0)


class TestLowerInputRows:
    def test_conv_matches_im2col(self, rng):
        codes = rng.integers(0, 16, size=(3, 6, 6))
        lowered = lower_input_rows(codes, (3, 3), stride=1, padding=1)
        expected = im2col(codes[None], (3, 3), 1, 1)[0]
        assert np.array_equal(lowered, expected)
        assert lowered.shape == (3, 9, 36)

    def test_linear_becomes_1x1(self, rng):
        codes = rng.integers(0, 16, size=(12,))
        lowered = lower_input_rows(codes, (1, 1))
        assert lowered.shape == (12, 1, 1)
        assert np.array_equal(lowered[:, 0, 0], codes)

    def test_rejects_bad_rank(self):
        with pytest.raises(ModelDefinitionError):
            lower_input_rows(np.zeros((2, 2)), (1, 1))


class TestActivationStore:
    def test_records_order_and_traffic(self, rng):
        store = ActivationStore(activation_bits=4)
        store.quantize_input("a", rng.uniform(0, 1, size=(1, 8)))
        store.quantize_input("b", rng.uniform(0, 1, size=(1, 16)))
        assert [entry.name for entry in store.layers()] == ["a", "b"]
        assert store.total_activation_bits == (8 + 16) * 4
        assert "a" in store and "c" not in store

    def test_revisit_extends_entry(self, rng):
        """Micro-batch chunks accumulate instead of overwriting."""
        store = ActivationStore(activation_bits=4, keep_tensors=True)
        store.quantize_input("a", rng.uniform(0, 1, size=(2, 8)))
        store.quantize_input("a", rng.uniform(0, 1, size=(1, 8)))
        entry = store["a"]
        assert entry.steps.shape == (3,)
        assert entry.input_bits == 3 * 8 * 4
        assert entry.input_codes.shape == (3, 8)

    def test_clear(self, rng):
        store = ActivationStore(activation_bits=4)
        store.quantize_input("a", rng.uniform(0, 1, size=(1, 8)))
        store.clear()
        assert store.total_activation_bits == 0
        assert not store.layers()


class TestLowerBatchRows:
    """Batched lowering is byte-identical to per-image lowering, including
    the geometry corners the compiler frontend can emit."""

    CASES = {
        "non_square_tall": dict(shape=(2, 3, 7, 5), kernel=(3, 1), stride=1,
                                padding=0),
        "non_square_wide": dict(shape=(2, 2, 5, 8), kernel=(1, 4), stride=2,
                                padding=0),
        "stride_gt_kernel": dict(shape=(3, 2, 9, 9), kernel=(2, 2), stride=3,
                                 padding=0),
        "zero_padding_none": dict(shape=(2, 2, 4, 4), kernel=(3, 3), stride=1,
                                  padding=0),
        "padding_exceeds_kernel": dict(shape=(2, 1, 3, 3), kernel=(2, 2),
                                       stride=1, padding=4),
        "single_pixel_output": dict(shape=(2, 2, 5, 5), kernel=(5, 5),
                                    stride=1, padding=0),
        "single_pixel_input": dict(shape=(2, 3, 1, 1), kernel=(1, 1), stride=1,
                                   padding=0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_image(self, rng, case):
        spec = self.CASES[case]
        codes = rng.integers(0, 16, size=spec["shape"])
        batched = lower_batch_rows(
            codes, spec["kernel"], spec["stride"], spec["padding"]
        )
        for image in range(spec["shape"][0]):
            expected = lower_input_rows(
                codes[image], spec["kernel"], spec["stride"], spec["padding"]
            )
            assert np.array_equal(batched[image], expected), case

    def test_features_match_per_image(self, rng):
        codes = rng.integers(0, 16, size=(4, 12))
        batched = lower_batch_rows(codes, (1, 1))
        for image in range(4):
            assert np.array_equal(
                batched[image], lower_input_rows(codes[image], (1, 1))
            )

    def test_rejects_bad_rank(self):
        with pytest.raises(ModelDefinitionError):
            lower_batch_rows(np.zeros((2, 2, 2)), (1, 1))
