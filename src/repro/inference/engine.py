"""Batched end-to-end inference on the execution-plan runtime.

:class:`BatchedInference` runs N images through one compiled model on one
leased AP pool: every weight layer's *real* quantized activations are lowered
to AP row operands (:mod:`repro.inference.activations`), executed as the
layer's :class:`~repro.runtime.plan.TileProgram` streams on the runtime's
pluggable executors, and reduced into exact integer partial sums whose order
independence makes ``serial``, ``parallel`` and ``thread`` execution - and
every backend - byte-identical.  The host executes the model's interstitial
operators (batch norm, ReLU, pooling, residual adds) between layers, so the
logits of the AP dataflow must match the pure-NumPy quantized reference
(:func:`repro.inference.reference.quantized_reference_forward`) exactly.

Every layer takes one dispatch path.  At construction the layer's tiles are
grouped into *wave groups* (tiles sharing compiled programs, rows and input
channels).  Per request the layer's codes are lowered once and each group's
``(image, tile)`` instances are staged as integer slices of that one tensor
(:class:`~repro.ap.backends.base.StagedWaveInputs`).  A group that passed the
native wave pre-flight runs the batched kernel directly; any other group
goes through the executor's
:meth:`~repro.runtime.executors.Executor.map_wave` and the backend's
``execute_wave`` contract.  The partial sums are reduced in (image, tile)
order.  Two disciplines call that routine:

* **layer-synchronous** (``pipeline=False``): the whole (micro-)batch goes
  through layer L, then a barrier, then layer L+1.
* **pipelined** (``pipeline=True``): every image runs its own forward on a
  driver thread and dispatches each layer on its own one-image codes the
  moment its input activations exist - layer L+1 of image i-1 streams
  through its own weight-resident AP group while layer L of image i is still
  in flight.  Per-AP-group occupancy is tracked by an
  :class:`~repro.runtime.pipeline.InFlightTracker`.

Per-image activation streams are quantized with per-image calibration and
every aggregation is rebuilt in (image, tile) order, so batched,
micro-batched, one-by-one, layer-synchronous and pipelined execution all
produce byte-identical logits and counters.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.ap.backends import resolve_backend
from repro.ap.backends.base import StagedWaveInputs, WaveResult
from repro.ap.backends.batched import execute_program_wave, wave_staging_plan
from repro.arch.accelerator import Accelerator
from repro.cam.stats import CAMStats
from repro.core.compiler import CompilerConfig, compile_model
from repro.errors import (
    CapacityError,
    ModelDefinitionError,
    SimulationError,
)
from repro.inference.activations import (
    ActivationStore,
    dequantize_batch,
    lower_batch_rows,
    normalize_images,
)
from repro.inference.dataflow import (
    DataflowGraph,
    DataflowNode,
    patch_weight_layers,
)
from repro.nn.layers import Module
from repro.nn.stats import model_layer_specs
from repro.runtime.executors import ExecutorSpec, resolve_executor
from repro.runtime.pipeline import InFlightTracker
from repro.runtime.plan import build_execution_plan
from repro.runtime.scheduler import (
    LayerRunResult,
    PlanExecution,
    aggregate_layer_run,
    charge_adder_tree_movement,
)


class _WaveGroup:
    """One layer's tiles that share compiled programs, rows and channels.

    The wave unit of the host dataflow: all ``(image, tile)`` instances of
    the group execute as one wave, with operands staged as slices of the
    layer's one lowered tensor.  Instance order is image-major, tile-minor,
    so results scatter back by ``image * tiles + tile_index``.
    ``preflighted`` records whether the group's programs passed the native
    wave pre-flight at engine construction.
    """

    __slots__ = (
        "tile",
        "rows",
        "tile_indices",
        "starts",
        "bindings",
        "preflighted",
        "rows_idx",
    )

    def __init__(self, tile, rows: int, bindings, preflighted: bool) -> None:
        self.tile = tile
        self.rows = rows
        self.bindings = bindings
        self.preflighted = preflighted
        self.tile_indices: List[int] = []
        self.starts: List[int] = []
        #: Lazily built ``(tiles, rows)`` row-gather index (multi-tile groups).
        self.rows_idx: Optional[np.ndarray] = None


class _NodePlan:
    """Per-layer host dataflow plan, built once per engine.

    ``tile_specs`` is the image-invariant parse of every tile (row slice and
    static reduction layout); ``groups`` is the wave grouping of those tiles.
    """

    __slots__ = ("tile_specs", "groups")

    def __init__(self, tile_specs, groups) -> None:
        self.tile_specs = tile_specs
        self.groups = groups


def _plan_node(node, columns: int, technology, native_wave: bool) -> _NodePlan:
    """Parse one layer's tiles and group them into waves.

    For native-wave backends this also calls :func:`wave_staging_plan` - at
    engine construction - which pre-lowers every program for the wave
    geometry, moving the whole compile-to-wave cost out of the first
    request's critical path.
    """
    rows_per_ap = node.mapping.rows_per_ap
    tile_specs = []
    groups: List[_WaveGroup] = []
    by_key: Dict[tuple, _WaveGroup] = {}
    for index, tile in enumerate(node.planned.tiles):
        start = tile.row_tile * rows_per_ap
        row_slice = slice(start, start + tile.rows)
        # Static reduction layout: each program emits its outputs in
        # sorted-name order, so the output channels per tile are known
        # before execution and the partial sums can be added in bulk.
        names_seq = [
            tuple(sorted(program.output_columns)) for program in tile.programs
        ]
        channels = np.array(
            [int(name[1:]) for names in names_seq for name in names],
            dtype=np.intp,
        )
        uniform = len(set(names_seq)) <= 1
        tile_specs.append((tile, row_slice, names_seq, channels, uniform))

        key = (
            tuple(id(program) for program in tile.programs),
            tile.rows,
            tuple(tile.channel_indices),
        )
        group = by_key.get(key)
        if group is None:
            preflighted = native_wave and wave_staging_plan(
                tile.programs, columns, technology=technology
            )
            bindings = [
                (channel, [(name, int(name[1:])) for name in program.input_columns])
                for channel, program in zip(tile.channel_indices, tile.programs)
            ]
            group = by_key[key] = _WaveGroup(tile, tile.rows, bindings, preflighted)
            groups.append(group)
        group.tile_indices.append(index)
        group.starts.append(row_slice.start)
    return _NodePlan(tile_specs, groups)


def _stage_group(
    group: _WaveGroup, lowered: np.ndarray, num_images: int
) -> StagedWaveInputs:
    """Stage one wave group's operands as slices of the lowered tensor.

    Single-tile groups (the common shape of weight-resident plans) stage
    pure views - zero copies between the layer's one lowering pass and the
    CAM load.  Multi-tile groups gather all tiles' row windows in one fancy
    index per operand (one copy per operand name, never per instance).
    """
    tiles = len(group.tile_indices)
    rows = group.rows
    instances = num_images * tiles
    if tiles == 1:
        window = slice(group.starts[0], group.starts[0] + rows)
        values = [
            {name: lowered[:, channel, k, window] for name, k in names}
            for channel, names in group.bindings
        ]
        return StagedWaveInputs(instances, rows, values)
    rows_idx = group.rows_idx
    if rows_idx is None:
        rows_idx = group.rows_idx = np.asarray(group.starts, dtype=np.intp)[
            :, None
        ] + np.arange(rows, dtype=np.intp)
    values = [
        {
            name: lowered[:, channel, k, rows_idx].reshape(instances, rows)
            for name, k in names
        }
        for channel, names in group.bindings
    ]
    return StagedWaveInputs(instances, rows, values)


@dataclass
class InferenceResult:
    """Logits plus the aggregated runtime counters of one inference run."""

    model: str
    logits: np.ndarray
    images: int
    execution: PlanExecution
    store: ActivationStore

    @property
    def predictions(self) -> np.ndarray:
        """Top-1 class per image."""
        return self.logits.argmax(axis=1)

    @property
    def checksum(self) -> int:
        """Order-independent checksum across every executed tile."""
        return self.execution.checksum

    @property
    def wall_time_s(self) -> float:
        """Host wall-clock of the whole run."""
        return self.execution.wall_time_s


@dataclass
class _LayerCollector:
    """Thread-safe per-layer accumulation of one pipelined request.

    Driver threads deposit each ``(image, layer)`` dispatch here the moment
    it completes; everything is keyed by image index so the finalization can
    rebuild the exact (image-major, tile-minor) order of the layer-
    synchronous engine, making the aggregated counters byte-identical no
    matter which order the pipeline finished in.
    """

    #: image -> per-tile CAMStats in tile order.
    stats: Dict[int, List[CAMStats]] = field(default_factory=dict)
    #: image -> checksum of the image's tile outputs.
    checksums: Dict[int, int] = field(default_factory=dict)
    #: image -> activation bits entering the layer.
    input_bits: Dict[int, int] = field(default_factory=dict)
    #: Host wall-clock of the layer's dispatches (sum over images).
    wall_time_s: float = 0.0


class _PipelinedRequest:
    """Mutable state of one in-flight pipelined inference request."""

    def __init__(self, store: ActivationStore, request_id: int = 0) -> None:
        self.store = store
        self.request_id = request_id
        self.layers: Dict[str, _LayerCollector] = {}
        self.lock = threading.Lock()

    def collector(self, name: str) -> _LayerCollector:
        with self.lock:
            collector = self.layers.get(name)
            if collector is None:
                collector = self.layers[name] = _LayerCollector()
            return collector

    def record(
        self,
        name: str,
        image: int,
        stats: List[CAMStats],
        checksum: int,
        input_bits: int,
        wall_time_s: float,
    ) -> None:
        collector = self.collector(name)
        with self.lock:
            collector.stats[image] = stats
            collector.checksums[image] = checksum
            collector.input_bits[image] = input_bits
            collector.wall_time_s += wall_time_s


class BatchedInference:
    """Functional end-to-end inference driver over one leased AP pool.

    Args:
        model: a module tree built from :mod:`repro.nn.layers`.
        input_shape: un-batched input shape ``(C, H, W)`` (or ``(features,)``).
        bits: activation precision (the paper evaluates 4 and 8).
        signed: signedness of the quantized activations.
        accelerator: AP provider; sized automatically (growing banks) when
            omitted and the model needs more concurrent APs than the default.
        executor: tile executor (``serial``/``parallel``/``thread``), class or
            instance.
        workers: worker count for pool executors.
        backend: functional AP execution backend; the accelerator's default
            when omitted.
        keep_activations: keep per-layer quantized codes and integer outputs
            in the activation store (debugging/tests).
        name: plan name used in reports.
        compiled: pre-compiled model (``emit_programs=True``); compiled here
            when omitted.  A :class:`repro.session.Session` passes its own so
            compilation happens exactly once per session.
        plan: pre-built execution plan for ``compiled`` on ``accelerator``
            (both must be given together); built here when omitted.
        pipeline: default dispatch discipline of :meth:`run`: ``False`` is
            the layer-synchronous engine (all images' tiles of layer L fan
            out, then a barrier); ``True`` is the dependency-driven pipeline
            (each image advances to layer L+1 the moment its own layer L
            completes, so different layers' resident AP groups work
            concurrently).  Logits and aggregated counters are
            byte-identical across the two.
        pipeline_depth: maximum images in flight per pipelined request (the
            double-buffering depth bounding peak activation memory);
            ``min(weight layers, 8)`` when omitted.
    """

    def __init__(
        self,
        model: Module,
        input_shape: Sequence[int],
        bits: int = 4,
        signed: bool = False,
        accelerator: Optional[Accelerator] = None,
        executor: ExecutorSpec = "serial",
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        keep_activations: bool = False,
        name: str = "model",
        compiled=None,
        plan=None,
        pipeline: bool = False,
        pipeline_depth: Optional[int] = None,
    ) -> None:
        if pipeline_depth is not None and pipeline_depth < 1:
            raise ModelDefinitionError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
        input_shape = tuple(input_shape)
        if plan is not None and (compiled is None or accelerator is None):
            raise ModelDefinitionError(
                "a pre-built plan needs its compiled model and accelerator"
            )
        if compiled is None:
            specs = model_layer_specs(model, input_shape)
            if not specs:
                raise ModelDefinitionError("model has no weight layers to execute")
            compiled = compile_model(
                specs,
                CompilerConfig(activation_bits=bits, signed_activations=signed),
                name=name,
                emit_programs=True,
            )
        if plan is None:
            if accelerator is None:
                accelerator = (
                    Accelerator() if backend is None else Accelerator(backend=backend)
                )
                try:
                    plan = build_execution_plan(compiled, accelerator=accelerator)
                except CapacityError:
                    needed = max(
                        layer.mapping.row_tiles * layer.mapping.channel_groups
                        for layer in compiled.layers
                    )
                    accelerator = Accelerator(
                        config=accelerator.config.with_total_aps(needed),
                        backend=accelerator.backend,
                    )
                    plan = build_execution_plan(compiled, accelerator=accelerator)
            else:
                plan = build_execution_plan(compiled, accelerator=accelerator)
        self.accelerator = accelerator
        self.plan = plan
        self.executor = resolve_executor(executor, workers=workers)
        self.backend = backend if backend is not None else accelerator.backend
        self.graph = DataflowGraph.build(
            model,
            input_shape,
            compiled,
            plan,
            store=ActivationStore(
                activation_bits=bits, signed=signed, keep_tensors=keep_activations
            ),
        )
        self._columns = plan.lease_columns
        self._layer_results: Dict[str, LayerRunResult] = {}
        self.pipeline = bool(pipeline)
        self.pipeline_depth = pipeline_depth
        #: Per-AP-group (resident layer) occupancy of pipelined dispatches.
        self.tracker = InFlightTracker()
        self._tls = threading.local()
        self._patch_lock = threading.Lock()
        self._patch_refs = 0
        self._patch_cm = None
        self._closed = False
        #: Monotonic per-engine request ids (span attribute only; results
        #: carry no id, so numbering never affects the data path).
        self._request_ids = itertools.count()
        self._technology = accelerator.config.technology
        self._backend_class = resolve_backend(self.backend)
        native_wave = self._backend_class.supports_program_wave
        #: Per-layer host dataflow plans (tile parses + wave groupings); for
        #: native-wave backends this also pre-lowers every program to its
        #: wave form, so no request pays the lowering cost.
        with telemetry.span(
            "host.plan",
            category="host",
            layers=len(self.graph.nodes),
            wave=native_wave,
        ):
            self._node_plans = {
                node.name: _plan_node(
                    node, self._columns, self._technology, native_wave
                )
                for node in self.graph.nodes
            }

    # ------------------------------------------------------------------
    # Forward-hook plumbing shared by both dispatch disciplines
    # ------------------------------------------------------------------
    def _dispatch_hook(self, name: str, module: Module, value: np.ndarray):
        """Route a patched weight layer to the calling thread's active hook.

        The model is patched *once* (refcounted) for any number of
        concurrent forwards; each driver thread installs its own per-image
        hook in thread-local storage, so overlapping images - and
        overlapping requests - share one patched model without contending.
        """
        hook = getattr(self._tls, "hook", None)
        if hook is None:
            raise SimulationError(
                f"weight layer {name!r} executed outside an inference run "
                f"(no layer hook installed on this thread)"
            )
        return hook(self.graph.node(name), value)

    @contextmanager
    def _patched(self):
        """Reference-counted weight-layer patch (concurrency-safe).

        ``patch_weight_layers`` mutates the shared module tree; with
        overlapping pipelined requests several threads need it active at
        once.  The first entrant applies the patch, the last one restores
        the original forwards - strictly nested enter/exit per thread, so
        the LIFO restore of the underlying context manager holds.
        """
        with self._patch_lock:
            if self._patch_refs == 0:
                self._patch_cm = patch_weight_layers(
                    self.graph.model, self.graph.input_shape, self._dispatch_hook
                )
                self._patch_cm.__enter__()
            self._patch_refs += 1
        try:
            yield
        finally:
            with self._patch_lock:
                self._patch_refs -= 1
                if self._patch_refs == 0:
                    manager, self._patch_cm = self._patch_cm, None
                    manager.__exit__(None, None, None)

    @contextmanager
    def _thread_hook(self, hook):
        previous = getattr(self._tls, "hook", None)
        self._tls.hook = hook
        try:
            yield
        finally:
            self._tls.hook = previous

    # ------------------------------------------------------------------
    def run(
        self,
        images: np.ndarray,
        batch: Optional[int] = None,
        pipeline: Optional[bool] = None,
    ) -> InferenceResult:
        """Run a batch of images through the network on the AP runtime.

        Args:
            images: batched ``(N,) + input_shape`` (or one un-batched image).
            batch: optional micro-batch size; the batch is processed in
                chunks of this many images (bounding peak activation memory).
                Per-image quantization makes chunked and unchunked execution
                byte-identical.  In pipelined mode it caps the images in
                flight instead (same memory bound, no barrier).
            pipeline: override the engine's default dispatch discipline for
                this request (see the constructor's ``pipeline`` argument).
        """
        pipelined = self.pipeline if pipeline is None else pipeline
        if batch is not None and batch < 1:
            raise ModelDefinitionError(f"batch must be >= 1, got {batch}")
        if pipelined:
            return self._run_pipelined(images, batch=batch)
        request_id = next(self._request_ids)
        started = time.perf_counter()
        x, _ = normalize_images(images, self.graph.input_shape)
        self._layer_results = {}
        # Every run gets a fresh store so previously returned results keep
        # their own buffers (the graph's store is the *current* run's).
        previous = self.graph.store
        self.graph.store = ActivationStore(
            activation_bits=previous.activation_bits,
            signed=previous.signed,
            keep_tensors=previous.keep_tensors,
        )
        chunks = (
            [x]
            if batch is None
            else [x[start : start + batch] for start in range(0, x.shape[0], batch)]
        )
        logits = np.concatenate([self._forward(chunk) for chunk in chunks], axis=0)
        finished = time.perf_counter()
        telemetry.complete(
            "session.request",
            started,
            finished,
            category="session",
            request_id=request_id,
            images=int(x.shape[0]),
            mode="layer-sync",
        )
        execution = PlanExecution(
            name=self.plan.name,
            executor=self.executor.name,
            backend=str(self.backend),
            workers=getattr(self.executor, "workers", 1),
            layers=[self._layer_results[node.name] for node in self.graph.nodes],
            wall_time_s=finished - started,
        )
        return InferenceResult(
            model=self.plan.name,
            logits=logits,
            images=x.shape[0],
            execution=execution,
            store=self.graph.store,
        )

    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray) -> np.ndarray:
        """One micro-batch through the model with AP-executed weight layers."""
        with self._patched(), self._thread_hook(self._layer_hook):
            return self.graph.model(x)

    def _layer_hook(self, node: DataflowNode, x: np.ndarray) -> np.ndarray:
        """Quantize a layer's input, execute its tiles, dequantize the output."""
        codes, steps = self.graph.store.quantize_input(node.name, x)
        num_images = codes.shape[0]
        y_int, stats, checksum, wall = self._dispatch_layer(
            node, codes, images=num_images
        )
        self._record_layer(
            self._aggregate_layer(
                node,
                stats,
                num_images,
                codes.size * self.graph.store.activation_bits,
                checksum,
                wall,
            )
        )
        self.graph.store.record_output(node.name, y_int)
        y = dequantize_batch(y_int, steps, node.weight_scale)
        return y.reshape((x.shape[0],) + node.output_spatial(y_int.shape[-1]))

    # ------------------------------------------------------------------
    # The one dispatch path: stage -> map_wave -> reduce
    # ------------------------------------------------------------------
    def _dispatch_layer(
        self,
        node: DataflowNode,
        codes: np.ndarray,
        in_flight: bool = False,
        **span_args,
    ) -> Tuple[np.ndarray, List[CAMStats], int, float]:
        """Run every (image, tile) of one layer on ``codes`` and reduce.

        The layer's codes are lowered once to integer rows and each wave
        group's instances slice views of that one tensor
        (:func:`_stage_group`).  Returns the integer partial sums
        ``(images, out_channels, positions)``, the per-tile CAMStats in
        (image, tile) order, the output checksum and the device wall-clock.
        ``in_flight`` tracks the layer's AP group in :attr:`tracker` for the
        duration of the device work.
        """
        plan = self._node_plans[node.name]
        mapping = node.mapping
        num_images = codes.shape[0]
        lowered = lower_batch_rows(codes, node.kernel_size, node.stride, node.padding)
        with telemetry.span(
            "host.stage",
            category="host",
            layer=node.name,
            images=num_images,
            mode="wave",
        ):
            staged_groups = [
                _stage_group(group, lowered, num_images) for group in plan.groups
            ]
        num_tiles = len(plan.tile_specs)
        results: List[WaveResult] = [None] * (num_images * num_tiles)  # type: ignore[list-item]
        started = time.perf_counter()
        with telemetry.span(
            "device.layer",
            category="device",
            track=f"ap-group/{node.planned.layer_index}",
            layer=node.name,
            executor=self.executor.name,
            backend=str(self.backend),
            **span_args,
        ), (
            self.tracker.entered(node.planned.layer_index)
            if in_flight
            else nullcontext()
        ):
            for group, staged in zip(plan.groups, staged_groups):
                tiles = len(group.tile_indices)
                wave = self._run_wave(group, staged)
                for instance, result in enumerate(wave):
                    image, tile_pos = divmod(instance, tiles)
                    results[image * num_tiles + group.tile_indices[tile_pos]] = result
        wall = time.perf_counter() - started
        # Residency accounting per (image, tile) dispatch: warm on a deployed
        # (pinned) plan, cold lease + reprogram otherwise.
        for _ in range(num_images):
            for spec in plan.tile_specs:
                self.accelerator.account_tile_dispatch(spec[0])

        # Order-independent reduction of the real outputs: exact integer
        # partial sums accumulated per (image, output channel, position).
        accumulator = np.zeros(
            (num_images, mapping.out_channels, mapping.output_positions), np.int64
        )
        index = 0
        for image in range(num_images):
            for _, row_slice, names_seq, channels, uniform in plan.tile_specs:
                stacked = results[index].outputs
                index += 1
                if channels.size == 0:
                    continue
                target = accumulator[image, :, row_slice]
                if uniform:
                    # All programs of the tile emit the same output channels
                    # (one input-channel slice each): fold the program axis
                    # first, then one indexed add per tile.  int64 addition
                    # commutes exactly, so the result matches per-value adds.
                    if len(names_seq) > 1:
                        stacked = stacked.reshape(
                            len(names_seq), -1, stacked.shape[-1]
                        ).sum(axis=0)
                    target[channels[: len(names_seq[0])]] += stacked
                else:
                    np.add.at(target, channels, stacked)
        return (
            accumulator,
            [result.stats for result in results],
            sum(result.checksum for result in results),
            wall,
        )

    def _run_wave(self, group: _WaveGroup, staged: StagedWaveInputs) -> List[WaveResult]:
        """Execute one staged wave group, results in instance order.

        A group that passed the wave pre-flight runs the batched kernel
        whole, in this thread - called from here so that every native wave
        goes through this module's ``execute_program_wave`` name, which the
        repository benchmark's ``probe.backends.wave`` wrapper times.  If
        the kernel declines (operands outside a load's range), the group
        runs per instance without trying the kernel again, so the AP raises
        the proper errors.  Every other group goes through the executor's
        ``map_wave`` and the backend's ``execute_wave`` contract.
        """
        programs, rows = group.tile.programs, group.rows
        if not group.preflighted:
            return self.executor.map_wave(
                self.backend, programs, staged, rows, self._columns, self._technology
            )
        results = execute_program_wave(
            programs, staged, rows, self._columns, technology=self._technology
        )
        if results is None:
            results = self._backend_class.execute_instances(
                programs, staged, rows, self._columns, self._technology
            )
        return results

    def _aggregate_layer(
        self,
        node: DataflowNode,
        stats: Sequence[CAMStats],
        num_images: int,
        input_bits: int,
        checksum: int,
        wall_time_s: float,
    ) -> LayerRunResult:
        """Charge one layer's interconnect movement and aggregate its tiles.

        ``stats`` holds the per-tile counters in (image, tile) order; each
        image is its own latency stream (images sharing the pool serialise,
        tiles of one round within an image overlap).
        """
        planned = node.planned
        movement = charge_adder_tree_movement(
            self.accelerator, planned, repeats=num_images
        )
        predecessor = self.graph.predecessor(node)
        movement = movement.merge(
            self.accelerator.charge_activation_traffic(
                float(input_bits),
                src=predecessor.planned.tiles[0].address if predecessor else None,
                dst=planned.tiles[0].address if planned.tiles else None,
            )
        )
        tiles = planned.tiles
        return aggregate_layer_run(
            planned,
            [
                (tile, stats[image * len(tiles) + index], image)
                for image in range(num_images)
                for index, tile in enumerate(tiles)
            ],
            self.accelerator,
            movement,
            repeats=num_images,
            checksum=checksum,
            wall_time_s=wall_time_s,
        )

    # ------------------------------------------------------------------
    # Pipelined dispatch: dependency-driven execution across layers/images
    # ------------------------------------------------------------------
    def _run_pipelined(
        self, images: np.ndarray, batch: Optional[int] = None
    ) -> InferenceResult:
        """Pipelined counterpart of the layer-synchronous run.

        Every image runs its own forward on a driver thread: the host
        interstitial operators of image i+1 overlap with the AP tile
        execution of image i, and - because a weight-resident plan gives
        each layer a disjoint AP group - layer L+1 of one image streams
        through its own pinned APs while layer L of the next image is still
        in flight.  No layer barrier exists anywhere; each ``(image, layer)``
        work item dispatches the moment its input activations exist.

        Aggregated counters are rebuilt in image order at the end, so the
        returned :class:`InferenceResult` is byte-identical to the
        layer-synchronous engine's (only wall-clock and the execution's
        ``mode`` differ).
        """
        request_id = next(self._request_ids)
        started = time.perf_counter()
        x, _ = normalize_images(images, self.graph.input_shape)
        num_images = int(x.shape[0])
        store = ActivationStore(
            activation_bits=self.graph.store.activation_bits,
            signed=self.graph.store.signed,
            keep_tensors=self.graph.store.keep_tensors,
        )
        request = _PipelinedRequest(store, request_id=request_id)
        depth = self.pipeline_depth
        if depth is None:
            depth = min(max(2, len(self.graph.nodes)), 8)
        if batch is not None:
            depth = min(depth, batch)
        depth = max(1, min(depth, max(num_images, 1)))

        if num_images < 1:
            raise ModelDefinitionError(
                "a pipelined run needs at least one image"
            )
        logits_parts: List[Optional[np.ndarray]] = [None] * num_images
        with self._patched():
            with ThreadPoolExecutor(
                max_workers=depth, thread_name_prefix="pipeline-image"
            ) as drivers:
                futures = {
                    drivers.submit(self._drive_image, request, x, image): image
                    for image in range(num_images)
                }
                errors: List[BaseException] = []
                for future, image in futures.items():
                    try:
                        logits_parts[image] = future.result()
                    except BaseException as error:  # noqa: BLE001 - re-raised
                        errors.append(error)
        if errors:
            # All drivers have settled (the pool context waited); nothing is
            # left racing the executor, so propagating is safe.
            raise errors[0]

        execution = self._finalize_pipelined(request, num_images)
        finished = time.perf_counter()
        telemetry.complete(
            "session.request",
            started,
            finished,
            category="session",
            request_id=request_id,
            images=num_images,
            mode="pipelined",
        )
        execution.wall_time_s = finished - started
        # The shared graph.store is deliberately left untouched: overlapping
        # requests (and a concurrent layer-synchronous run) each own their
        # result's store; mutating the shared one here would corrupt theirs.
        logits = np.concatenate(logits_parts, axis=0)
        return InferenceResult(
            model=self.plan.name,
            logits=logits,
            images=num_images,
            execution=execution,
            store=store,
        )

    def _drive_image(
        self, request: _PipelinedRequest, x: np.ndarray, image: int
    ) -> np.ndarray:
        """One image's full forward (host ops inline, AP layers dispatched)."""

        def hook(node: DataflowNode, value: np.ndarray) -> np.ndarray:
            return self._pipelined_layer_hook(request, image, node, value)

        with self._thread_hook(hook):
            return self.graph.model(x[image : image + 1])

    def _pipelined_layer_hook(
        self,
        request: _PipelinedRequest,
        image: int,
        node: DataflowNode,
        x: np.ndarray,
    ) -> np.ndarray:
        """Quantize, dispatch and reduce one (image, layer) work item.

        Runs on the image's driver thread, through the same dispatch routine
        as the layer-synchronous engine on the image's one-image codes;
        concurrent drivers overlap on the executor's pool (and native waves
        are pure NumPy, so they overlap too).
        """
        codes, steps = request.store.quantize_image_input(node.name, image, x)
        y_int, stats, checksum, wall = self._dispatch_layer(
            node,
            codes,
            in_flight=True,
            image=image,
            request_id=request.request_id,
        )
        request.record(
            node.name,
            image,
            stats=stats,
            checksum=checksum,
            input_bits=int(codes.size) * request.store.activation_bits,
            wall_time_s=wall,
        )
        request.store.record_image_output(node.name, image, y_int)
        y = dequantize_batch(y_int, steps, node.weight_scale)
        return y.reshape((1,) + node.output_spatial(y_int.shape[-1]))

    def _finalize_pipelined(
        self, request: _PipelinedRequest, num_images: int
    ) -> PlanExecution:
        """Deterministic epilogue of a pipelined request.

        Rebuilds every layer's aggregation in (image, tile) order and
        charges interconnect movement per layer in plan order - the exact
        sequence the layer-synchronous engine produces - so counters,
        energies and latencies come out byte-identical regardless of
        completion order.
        """
        execution = PlanExecution(
            name=self.plan.name,
            executor=self.executor.name,
            backend=str(self.backend),
            workers=getattr(self.executor, "workers", 1),
            mode="pipelined",
        )
        for node in self.graph.nodes:
            collector = request.layers.get(node.name)
            if collector is None or len(collector.stats) != num_images:
                seen = 0 if collector is None else len(collector.stats)
                raise SimulationError(
                    f"pipelined run finished with {seen}/{num_images} images "
                    f"recorded for layer {node.name!r}"
                )
            execution.layers.append(
                self._aggregate_layer(
                    node,
                    [
                        stats
                        for image in range(num_images)
                        for stats in collector.stats[image]
                    ],
                    num_images,
                    sum(collector.input_bits.values()),
                    sum(collector.checksums.values()),
                    collector.wall_time_s,
                )
            )
        request.store.finalize_images(
            [node.name for node in self.graph.nodes], num_images
        )
        return execution

    # ------------------------------------------------------------------
    def _record_layer(self, result: LayerRunResult) -> None:
        """Merge a micro-batch's layer counters into the run aggregate."""
        existing = self._layer_results.get(result.name)
        if existing is None:
            self._layer_results[result.name] = result
            return
        existing.stats = existing.stats.merge(result.stats)
        existing.energy = existing.energy.merge(result.energy)
        existing.latency = existing.latency.merge(result.latency)
        existing.total_ops += result.total_ops
        existing.tiles_executed += result.tiles_executed
        existing.checksum += result.checksum
        existing.wall_time_s += result.wall_time_s

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor's pooled workers and the leased AP pool.

        Idempotent and exception-safe: a second call is a no-op, and the AP
        pool is released even if draining/closing the executor raises - a
        failed pipelined run cannot leak a worker pool or pooled APs.
        """
        if self._closed:
            return
        self._closed = True
        try:
            # Executor.close() drains its own in-flight futures first.
            self.executor.close()
        finally:
            self.accelerator.release_aps()

    def __enter__(self) -> "BatchedInference":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
