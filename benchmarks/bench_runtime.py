"""Execution-plan runtime benchmark: executor equivalence + parallel speedup.

The runtime's contract (see ``src/repro/runtime/``) has two halves:

* **Determinism** - ``execute_plan`` produces byte-identical aggregated
  :class:`~repro.cam.stats.CAMStats` (and output checksums) for the
  ``serial`` and ``parallel``/``thread`` executors and for the
  ``reference``, ``vectorized`` and ``batched`` backends, on a small-vgg9
  plan.  Every tile runs as a one-instance staged wave, so ``batched``
  tiles go through its native wave kernel.
* **Speed** - the ``parallel`` (process-pool) executor is at least 2x faster
  than ``serial`` wall-clock on >= 4 workers for the Python-heavy
  ``reference`` backend, whatever ``--ap-backend`` selects.  The gate skips
  on hosts with fewer than 4 CPUs (CI provides the multi-core run).
"""

import os
import time

import pytest

from repro.arch.accelerator import Accelerator
from repro.core.compiler import CompilerConfig, compile_model
from repro.core.frontend import specs_for_network
from repro.eval.reporting import format_table
from repro.runtime import build_execution_plan

#: Input-channel slices simulated per layer (the documented sampling).
#: Four slices keep each tile chunky enough that pool dispatch overhead is
#: negligible next to per-tile compute on the reference backend.
SLICES = 4

#: Minimum serial/parallel wall-clock ratio accepted by the gate.
REQUIRED_SPEEDUP = 2.0
#: The gate measures the parallel executor at this worker count.
GATE_WORKERS = 4


@pytest.fixture(scope="module")
def vgg9_plan(ap_seed):
    """A small vgg9 execution plan (sampled slices, paper architecture)."""
    specs = specs_for_network("vgg9", sparsity=0.85, rng=0)
    compiled = compile_model(
        specs,
        CompilerConfig(activation_bits=4, max_slices_per_layer=SLICES),
        name="vgg9",
        emit_programs=True,
    )
    return build_execution_plan(
        compiled, accelerator=Accelerator(), base_seed=ap_seed
    )


def _execute(plan, executor, backend, workers=None):
    accelerator = Accelerator(backend=backend)
    started = time.perf_counter()
    execution = accelerator.execute_plan(plan, executor=executor, workers=workers)
    return execution, time.perf_counter() - started


@pytest.mark.parametrize("executor", ["parallel", "thread"])
def test_executor_equivalence_on_vgg9(vgg9_plan, executor):
    """Serial and pooled executors agree counter-for-counter."""
    serial, _ = _execute(vgg9_plan, "serial", "vectorized")
    pooled, _ = _execute(vgg9_plan, executor, "vectorized", workers=2)
    assert serial.total_stats == pooled.total_stats
    assert serial.checksum == pooled.checksum
    for left, right in zip(serial.layers, pooled.layers):
        assert left.stats == right.stats, f"layer {left.name} diverged"


def test_backend_equivalence_on_vgg9(vgg9_plan):
    """All registered backends agree counter-for-counter."""
    vectorized, _ = _execute(vgg9_plan, "serial", "vectorized")
    for backend in ("reference", "batched"):
        other, _ = _execute(vgg9_plan, "serial", backend)
        assert vectorized.total_stats == other.total_stats, backend
        assert vectorized.checksum == other.checksum, backend


def test_layer_crosscheck_on_vgg9(vgg9_plan):
    """The analytic cost model envelopes the functional layer counters."""
    from repro.perf.model import crosscheck_execution

    execution, _ = _execute(vgg9_plan, "serial", "vectorized")
    check = crosscheck_execution(vgg9_plan, execution)
    assert check.consistent, check.describe()


#: Why the thread executor never joins the speedup gate: CPython's GIL lets
#: only one thread run Python bytecode at a time, and the reference backend is
#: pure bytecode, so ``thread`` tops out near 1x at any worker count.  It
#: exists for workloads that release the GIL (NumPy kernels, blocking I/O);
#: process pools are the scaling path for the interpreter-heavy backends.
THREAD_GIL_NOTE = (
    "note: ThreadExecutor is GIL-bound on the reference backend (pure Python "
    "bytecode) - its speedup ceiling is ~1x regardless of workers; use the "
    "process pool for interpreter-heavy scaling"
)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < GATE_WORKERS,
    reason=f"parallel speedup gate needs >= {GATE_WORKERS} CPUs",
)
def test_parallel_speedup(vgg9_plan, save_report):
    """The process-pool executor must be >= 2x faster on >= 4 workers.

    Measured on the ``reference`` backend, whose per-tile cost is dominated
    by Python bytecode: that is the workload the parallel executor exists
    for, and the one where the GIL makes threads useless (see
    ``THREAD_GIL_NOTE``).  The backend is pinned, so ``--ap-backend`` does
    not change what this gate measures.
    """
    serial, serial_s = _execute(vgg9_plan, "serial", "reference")
    parallel, parallel_s = _execute(
        vgg9_plan, "parallel", "reference", workers=GATE_WORKERS
    )
    thread, thread_s = _execute(vgg9_plan, "thread", "reference", workers=GATE_WORKERS)
    assert serial.total_stats == parallel.total_stats
    assert serial.total_stats == thread.total_stats
    speedup = serial_s / max(parallel_s, 1e-9)
    thread_speedup = serial_s / max(thread_s, 1e-9)

    text = format_table(
        ["executor", "workers", "wall (s)", "speedup"],
        [
            ["serial", 1, f"{serial_s:.2f}", "1.00x"],
            ["parallel", GATE_WORKERS, f"{parallel_s:.2f}", f"{speedup:.2f}x"],
            ["thread", GATE_WORKERS, f"{thread_s:.2f}", f"{thread_speedup:.2f}x"],
        ],
        title=(
            f"runtime executors: vgg9 plan, {vgg9_plan.num_tiles} tiles, "
            f"{vgg9_plan.num_instructions} instructions (reference backend)"
        ),
    ) + "\n" + THREAD_GIL_NOTE
    save_report(
        "runtime",
        text,
        data={
            "serial_wall_s": serial_s,
            "parallel_wall_s": parallel_s,
            "thread_wall_s": thread_s,
            "speedup": speedup,
            "thread_speedup": thread_speedup,
            "workers": GATE_WORKERS,
            "required_speedup": REQUIRED_SPEEDUP,
        },
        ap_backend="reference",
        workers=GATE_WORKERS,
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"parallel executor is only {speedup:.2f}x faster than serial "
        f"on {GATE_WORKERS} workers (required: {REQUIRED_SPEEDUP}x)"
    )
