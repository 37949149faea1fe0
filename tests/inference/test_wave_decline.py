"""Engine-level wave declines: out-of-range codes on a pre-flighted layer.

Every layer of the test model passes the native wave pre-flight, so on the
batched backend the engine calls the kernel directly.  Codes outside the
narrowest load width make that kernel decline; the engine must then run the
wave per instance - without trying the kernel a second time through
``BatchedBackend.execute_wave`` - so the AP raises the same error as on a
per-instance backend.
"""

import pytest

from repro import telemetry
from repro.ap.backends import batched as batched_module
from repro.errors import QuantizationError
from repro.inference import activations as activations_module
from repro.inference import engine as engine_module
from repro.inference.engine import BatchedInference


def _first_codes_out_of_range(patch):
    """Push the first quantized layer input far beyond any load width."""
    original = activations_module.quantize_batch
    calls = []

    def quantize(x, bits, signed=False):
        codes, steps = original(x, bits, signed)
        calls.append(bits)
        return (codes + (1 << 20) if len(calls) == 1 else codes), steps

    patch.setattr(activations_module, "quantize_batch", quantize)


def _count_calls(patch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(module.__name__)
        return original(*args, **kwargs)

    patch.setattr(module, name, counted)


@pytest.mark.parametrize("pipeline", [False, True])
@pytest.mark.parametrize("backend", ["vectorized", "batched"])
def test_out_of_range_codes_decline_once_and_raise(
    tiny_cnn, images_rng, monkeypatch, backend, pipeline
):
    model, input_shape = tiny_cnn
    images = images_rng.uniform(0.0, 1.0, size=(1,) + input_shape)
    driver = BatchedInference(model, input_shape, bits=4, backend=backend)
    native = backend == "batched"
    assert all(
        group.preflighted == native
        for plan in driver._node_plans.values()
        for group in plan.groups
    )
    kernel_calls = []
    _first_codes_out_of_range(monkeypatch)
    _count_calls(monkeypatch, engine_module, "execute_program_wave", kernel_calls)
    _count_calls(monkeypatch, batched_module, "execute_program_wave", kernel_calls)
    try:
        with telemetry.capture() as tracer, pytest.raises(QuantizationError):
            driver.run(images, pipeline=pipeline)
        events = tracer.drain()
    finally:
        driver.close()
    declines = [event for event in events if event.name == "backend.wave_decline"]
    if native:
        # The first wave declined once, then its per-instance run raised.
        assert kernel_calls == [engine_module.__name__]
        assert [event.args["reason"] for event in declines] == ["invalid-input"]
    else:
        assert kernel_calls == [] and declines == []
