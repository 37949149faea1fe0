"""Unified execution-plan runtime: scheduler + parallel functional simulation.

This package turns the repo's compile -> allocate -> execute stages into one
explicit pipeline:

1. :func:`~repro.runtime.plan.build_execution_plan` joins a
   :class:`~repro.core.compiler.CompiledModel` (``emit_programs=True``) with
   an :class:`~repro.arch.allocator.AllocationPlan` into per-AP
   :class:`~repro.runtime.plan.TileProgram` objects addressed by
   ``(bank, tile, ap)``.
2. A :class:`~repro.runtime.scheduler.Scheduler` walks the plan layer by
   layer and runs each tile as a one-instance staged wave - the same
   :meth:`~repro.ap.backends.base.ExecutionBackend.execute_wave` device
   contract functional inference uses - fanned out over a pluggable executor
   (``serial`` / ``parallel`` process pool / ``thread`` pool).
3. Per-tile :class:`~repro.cam.stats.CAMStats` are reduced with
   order-independent reductions, so parallel output is byte-identical to
   serial output, and interconnect traffic is charged through the
   accelerator's :class:`~repro.arch.interconnect.InterconnectModel`.

The usual entry point is
:meth:`repro.arch.accelerator.Accelerator.execute_plan`; the helper
:func:`execute_model` below goes from layer specs to a
:class:`~repro.runtime.scheduler.PlanExecution` in one call (this is what
``python -m repro run`` uses).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.runtime.executors import (
    Executor,
    ExecutorSpec,
    ParallelExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    resolve_executor,
)
from repro.runtime.pipeline import GroupTrace, InFlightTracker
from repro.runtime.plan import (
    ExecutionPlan,
    PlannedLayer,
    TileProgram,
    build_execution_plan,
    derive_tile_seed,
    resident_aps_required,
)
from repro.runtime.scheduler import LayerRunResult, PlanExecution, Scheduler


def execute_model(
    specs: Sequence,
    accelerator=None,
    compiler_config=None,
    executor: ExecutorSpec = "serial",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    base_seed: int = 0,
    name: str = "model",
) -> PlanExecution:
    """Compile, plan and functionally execute a model in one call.

    Thin convenience wrapper over ``compile_model(emit_programs=True)`` +
    :func:`build_execution_plan` +
    :meth:`~repro.arch.accelerator.Accelerator.execute_plan`.
    """
    from repro.arch.accelerator import Accelerator
    from repro.core.compiler import compile_model

    accelerator = accelerator or Accelerator()
    compiled = compile_model(specs, compiler_config, name=name, emit_programs=True)
    plan = build_execution_plan(compiled, accelerator=accelerator, base_seed=base_seed)
    return accelerator.execute_plan(
        plan, executor=executor, workers=workers, backend=backend
    )


__all__ = [
    "Executor",
    "ExecutorSpec",
    "SerialExecutor",
    "ParallelExecutor",
    "ThreadExecutor",
    "available_executors",
    "resolve_executor",
    "ExecutionPlan",
    "PlannedLayer",
    "TileProgram",
    "build_execution_plan",
    "derive_tile_seed",
    "resident_aps_required",
    "LayerRunResult",
    "PlanExecution",
    "Scheduler",
    "GroupTrace",
    "InFlightTracker",
    "execute_model",
]
