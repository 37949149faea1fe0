"""Generated layer specs: synthetic plan runs agree on every backend.

Beyond the two hand-picked topologies (vgg9, resnet18), hypothesis draws
single convolution layers over the geometry the compiler must handle -
channels, kernel, stride, padding, input size, weight sparsity, activation
precision and signedness.  Every drawn layer must compile, verify clean, run
byte-identically on the ``reference``, ``vectorized`` and ``batched``
backends (the latter as native waves, none declined), and match the analytic
cost model at layer granularity.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import telemetry
from repro.arch.accelerator import Accelerator
from repro.core.compiler import CompilerConfig, compile_model
from repro.nn.stats import ConvLayerSpec
from repro.nn.ternary import synthetic_ternary_weights
from repro.perf.model import crosscheck_execution
from repro.runtime import build_execution_plan


@st.composite
def layer_cases(draw):
    kernel = draw(st.integers(1, 3))
    size = draw(st.integers(3, 9))
    spec = ConvLayerSpec(
        name="generated",
        weights=synthetic_ternary_weights(
            (
                draw(st.integers(1, 8)),
                draw(st.integers(1, 6)),
                kernel,
                kernel,
            ),
            sparsity=draw(st.floats(0.0, 0.9)),
            rng=draw(st.integers(0, 2**16)),
        ),
        input_height=size,
        input_width=size,
        stride=draw(st.integers(1, 2)),
        padding=draw(st.integers(0, 1)),
    )
    return spec, draw(st.integers(2, 8)), draw(st.booleans())


def _passthrough_case():
    """A found case: output 2 is input x1 untouched, in a column of its own."""
    weights = np.zeros((3, 1, 3, 3), dtype=np.int8)
    weights[0, 0, 2, 1:] = 1
    weights[1, 0, 1:, 0] = 1
    weights[2, 0, 0, 1] = 1
    return ConvLayerSpec("generated", weights, 3, 3), 2, False


def _run(plan, backend):
    accelerator = Accelerator(backend=backend)
    execution = accelerator.execute_plan(plan)
    layers = [
        (layer.stats, layer.checksum, layer.energy, layer.latency, layer.total_ops)
        for layer in execution.layers
    ]
    return execution, (layers, accelerator.tile_stats(), accelerator.movement_ledger())


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(layer_cases())
@example(_passthrough_case())
def test_generated_layer_runs_identically_on_every_backend(case):
    spec, bits, signed = case
    config = CompilerConfig(activation_bits=bits, signed_activations=signed)
    compiled = compile_model([spec], config, name="generated", emit_programs=True)
    plan = build_execution_plan(compiled, accelerator=Accelerator(), verify=True)
    execution, expected = _run(plan, "reference")
    assert _run(plan, "vectorized")[1] == expected
    with telemetry.capture() as tracer:
        assert _run(plan, "batched")[1] == expected
    names = [event.name for event in tracer.drain()]
    assert names.count("backend.wave") == plan.num_tiles
    assert "backend.wave_decline" not in names
    check = crosscheck_execution(plan, execution)
    assert check.consistent, check.describe()
