"""The runtime scheduler: walks an execution plan layer by layer.

The :class:`Scheduler` runs every tile program of a layer as a one-instance
staged wave (:class:`~repro.ap.backends.base.StagedWaveInputs` of seeded
synthetic inputs) through the device contract of functional inference,
:meth:`~repro.ap.backends.base.ExecutionBackend.execute_wave`, fanning a
layer's tiles out over a pluggable executor
(:mod:`repro.runtime.executors`).  It reduces the per-tile
:class:`~repro.cam.stats.CAMStats` with order-independent reductions (integer
sums and per-round maxima), and charges interconnect traffic for the
inter-AP adder-tree merges through the accelerator's
:class:`~repro.arch.interconnect.InterconnectModel`.  The aggregated result,
:class:`PlanExecution`, is shaped like
:class:`~repro.perf.model.ModelPerformance` (same energy/latency/ops surface)
so the *functional* runtime numbers can be compared against the *analytic*
model at layer granularity (see
:func:`repro.perf.model.crosscheck_execution`).

Determinism guarantee
---------------------
Per-tile inputs derive from per-tile seeds, per-tile counters are exact
integers, and every reduction used here (integer sum, per-round maximum) is
order-independent - so ``serial``, ``thread`` and ``parallel`` execution of
the same plan produce byte-identical aggregated counters, as do the
``reference``, ``vectorized`` and ``batched`` backends (whose wave
equivalence is enforced by the backend test suite).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.ap.backends import resolve_backend
from repro.ap.backends.base import StagedWaveInputs
from repro.cam.stats import CAMStats
from repro.errors import ConfigurationError
from repro.perf.breakdown import EnergyBreakdown, LatencyBreakdown
from repro.runtime.executors import ExecutorSpec, _wave_chunk, resolve_executor
from repro.runtime.plan import ExecutionPlan, PlannedLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.arch.accelerator import Accelerator


@dataclass
class LayerRunResult:
    """Aggregated functional result of one layer of a plan."""

    name: str
    layer_index: int
    #: Exact, order-independent sum of the layer's tile counters.
    stats: CAMStats
    energy: EnergyBreakdown
    latency: LatencyBreakdown
    #: Add/sub instructions actually executed across the layer's tiles.
    total_ops: int
    #: Tiles executed / distinct APs occupied / sequential rounds.
    tiles_executed: int = 0
    aps_used: int = 0
    rounds: int = 1
    #: Order-independent checksum over every tile output (executor/backend
    #: equivalence witness).
    checksum: int = 0
    #: Statistics scale factor inherited from slice sampling (1.0 = exact).
    scale_factor: float = 1.0
    #: Host wall-clock spent executing the layer's tiles.
    wall_time_s: float = 0.0

    @property
    def energy_uj(self) -> float:
        """Layer energy in microjoules."""
        return self.energy.total_uj

    @property
    def latency_ms(self) -> float:
        """Layer latency in milliseconds."""
        return self.latency.total_ms


@dataclass
class PlanExecution:
    """Aggregated functional counters of a whole plan run.

    Mirrors the surface of :class:`~repro.perf.model.ModelPerformance`
    (``energy``, ``latency``, ``energy_uj``, ``latency_ms``, ``total_ops``,
    ``arrays_used``, ``movement_fraction``, ``layer_by_name``) so analytic
    and functional results can be tabulated side by side.
    """

    name: str
    executor: str
    backend: str
    workers: int
    layers: List[LayerRunResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    #: Dispatch discipline that produced the run: ``"layer-sync"`` (barrier
    #: per layer) or ``"pipelined"`` (dependency-driven inference, see
    #: :mod:`repro.inference.engine`).  Counters are byte-identical across
    #: the two; only wall-clock differs.
    mode: str = "layer-sync"

    @property
    def total_stats(self) -> CAMStats:
        """Element-wise sum of every layer's exact counters."""
        total = CAMStats()
        for layer in self.layers:
            total = total.merge(layer.stats)
        return total

    @property
    def energy(self) -> EnergyBreakdown:
        """Total energy breakdown."""
        total = EnergyBreakdown()
        for layer in self.layers:
            total = total.merge(layer.energy)
        return total

    @property
    def latency(self) -> LatencyBreakdown:
        """Total latency breakdown."""
        total = LatencyBreakdown()
        for layer in self.layers:
            total = total.merge(layer.latency)
        return total

    @property
    def energy_uj(self) -> float:
        """Functional energy of the run in microjoules."""
        return self.energy.total_uj

    @property
    def latency_ms(self) -> float:
        """Functional latency of the run in milliseconds."""
        return self.latency.total_ms

    @property
    def total_ops(self) -> int:
        """Add/sub instructions executed across the plan."""
        return sum(layer.total_ops for layer in self.layers)

    @property
    def arrays_used(self) -> int:
        """Peak number of distinct APs any layer occupied."""
        return max((layer.aps_used for layer in self.layers), default=0)

    @property
    def movement_fraction(self) -> float:
        """Fraction of functional energy spent moving data."""
        return self.energy.movement_fraction

    @property
    def checksum(self) -> int:
        """Order-independent checksum across every executed tile."""
        return sum(layer.checksum for layer in self.layers)

    def layer_by_name(self, name: str) -> LayerRunResult:
        """Look up a layer's functional result."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ConfigurationError(f"no layer named {name!r} in plan execution")


def generate_tile_inputs(
    program, rows: int, seed: int, activation_bits: int, signed: bool
) -> Dict[str, np.ndarray]:
    """Deterministic input activations for one slice program of a tile."""
    rng = np.random.default_rng(seed)
    if signed:
        low, high = -(1 << (activation_bits - 1)), (1 << (activation_bits - 1))
    else:
        low, high = 0, 1 << activation_bits
    return {
        name: rng.integers(low, high, size=rows)
        for name in program.input_columns
    }


def tile_wave_inputs(tile) -> StagedWaveInputs:
    """One tile's seeded synthetic operands as a one-instance staged wave.

    Slice program ``j`` draws from seed ``tile.input_seed + j``.
    """
    values = [
        {
            name: batch[None, :]
            for name, batch in generate_tile_inputs(
                program,
                tile.rows,
                tile.input_seed + offset,
                tile.activation_bits,
                tile.signed_activations,
            ).items()
        }
        for offset, program in enumerate(tile.programs)
    ]
    return StagedWaveInputs(1, tile.rows, values)


def aggregate_layer_run(
    layer: PlannedLayer,
    tile_stats,
    accelerator: "Accelerator",
    movement,
    repeats: int = 1,
    checksum: int = 0,
    wall_time_s: float = 0.0,
) -> LayerRunResult:
    """Reduce executed tiles' counters into one :class:`LayerRunResult`.

    The single accounting epilogue shared by the synthetic-input
    :class:`Scheduler` and the real-activation inference engine
    (:mod:`repro.inference.engine`), so energy/latency formulas cannot drift
    between ``repro run`` and ``repro infer``.

    Args:
        layer: the planned layer the tiles belong to.
        tile_stats: iterable of ``(tile, stats, stream)`` triples - one per
            executed tile, where ``stream`` keys the latency overlap group
            (tiles of the same stream and round overlap; the synthetic path
            uses a single stream, batched inference one stream per image).
        accelerator: ledgers owner; every tile's counters are charged to its
            ``(bank, tile)``.
        movement: :class:`~repro.arch.interconnect.TransferCost` already
            charged for the layer (adder-tree merges, activation hand-off).
        repeats: how many times the layer's static instruction stream ran
            (1 for the synthetic path, one per image for batched inference) -
            scales the controller/instruction-cache energy and the op count.
        checksum: order-independent output checksum across the tiles.
        wall_time_s: host wall-clock spent executing the tiles.
    """
    technology = accelerator.config.technology
    stats = CAMStats()
    round_latency: Dict[tuple, float] = {}
    executed = 0
    for tile, tile_counters, stream in tile_stats:
        executed += 1
        stats = stats.merge(tile_counters)
        accelerator.record_tile_stats(tile.address, tile_counters)
        key = (stream, tile.round_index)
        tile_latency = tile_counters.latency_ns(technology)
        round_latency[key] = max(round_latency.get(key, 0.0), tile_latency)

    # Per-layer latency: concurrent tiles of one (stream, round) overlap
    # (their maximum); sequential rounds and streams add up.
    dfg_ns = sum(round_latency.values())

    # Controller / instruction-cache overhead per issued instruction.
    peripherals_fj = (
        layer.num_instructions
        * repeats
        * accelerator.config.instruction_cache_energy_fj
    )
    energy = EnergyBreakdown(
        dfg_fj=stats.energy_fj(technology),
        peripherals_fj=peripherals_fj,
        movement_fj=movement.energy_fj,
    )
    latency = LatencyBreakdown(dfg_ns=dfg_ns, movement_ns=movement.latency_ns)
    return LayerRunResult(
        name=layer.name,
        layer_index=layer.layer_index,
        stats=stats,
        energy=energy,
        latency=latency,
        total_ops=repeats * sum(tile.num_arithmetic_ops for tile in layer.tiles),
        tiles_executed=executed,
        aps_used=layer.aps_used,
        rounds=layer.num_rounds,
        checksum=checksum,
        scale_factor=layer.scale_factor,
        wall_time_s=wall_time_s,
    )


def charge_adder_tree_movement(accelerator, layer: PlannedLayer, repeats: int = 1):
    """Charge the partial-sum merges between a layer's channel groups.

    Every channel group beyond the first must ship its per-row partial sums
    (one accumulator per output channel) to the group-0 AP of the same row
    tile; the hierarchy level crossed determines the per-bit energy.  Groups
    that sequential rounds place on the *same* AP merge in place (the
    accumulator column is simply extended next round) and move nothing.
    Charged through the accelerator so the traffic shows up in its
    interconnect ledger.  ``repeats`` scales the traffic for batched
    execution (one merge pass per image; the transfer model is linear in
    bits).
    """
    from repro.arch.interconnect import ZERO_TRANSFER

    total = ZERO_TRANSFER
    tiles_by_row: Dict[int, List] = {}
    for tile in layer.tiles:
        tiles_by_row.setdefault(tile.row_tile, []).append(tile)
    for row_tiles in tiles_by_row.values():
        groups = sorted(row_tiles, key=lambda tile: tile.channel_group)
        first = groups[0]
        for tile in groups[1:]:
            if tile.address == first.address:
                continue
            bits = float(
                layer.out_channels * tile.rows * layer.accumulator_width * repeats
            )
            scope = accelerator.transfer_scope(tile.address, first.address)
            total = total.merge(accelerator.charge_movement(bits, scope))
    return total


class Scheduler:
    """Walks an :class:`~repro.runtime.plan.ExecutionPlan` layer by layer.

    Args:
        accelerator: ledger and interconnect owner.  Tile counters and
            movement costs are charged back into it (per-tile aggregation).
        executor: executor name (``serial``/``parallel``/``thread``), class or
            instance.
        workers: worker count for pool executors.
        backend: execution backend for the functional APs; defaults to the
            accelerator's backend.
    """

    def __init__(
        self,
        accelerator: "Accelerator",
        executor: ExecutorSpec = "serial",
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.accelerator = accelerator
        self.executor = resolve_executor(executor, workers=workers)
        self.backend = backend if backend is not None else accelerator.backend

    # ------------------------------------------------------------------
    def run(self, plan: ExecutionPlan) -> PlanExecution:
        """Execute every layer of ``plan`` and aggregate its counters."""
        started = time.perf_counter()
        execution = PlanExecution(
            name=plan.name,
            executor=self.executor.name,
            backend=str(self.backend),
            workers=getattr(self.executor, "workers", 1),
        )
        columns = plan.lease_columns
        for layer in plan.layers:
            execution.layers.append(self._run_layer(layer, columns))
        execution.wall_time_s = time.perf_counter() - started
        return execution

    # ------------------------------------------------------------------
    def _run_layer(self, layer: PlannedLayer, columns: int) -> LayerRunResult:
        technology = self.accelerator.config.technology
        backend = resolve_backend(self.backend)
        for tile in layer.tiles:
            # Residency accounting happens at dispatch time (pool workers
            # run in other processes): pinned tiles are warm, everything
            # else charges a lease + CAM reprogram.
            self.accelerator.account_tile_dispatch(tile)
        started = time.perf_counter()
        with telemetry.span(
            "scheduler.layer",
            layer=layer.name,
            tiles=len(layer.tiles),
            executor=self.executor.name,
            backend=str(self.backend),
        ):
            # Every tile is a one-instance wave on a fresh tile.rows-row AP;
            # the executor fans the layer's tiles out.
            payloads = [
                (backend, tile.programs, tile_wave_inputs(tile), tile.rows,
                 columns, technology)
                for tile in layer.tiles
            ]
            results = [
                wave for (wave,) in self.executor.map_tasks(_wave_chunk, payloads)
            ]
        wall = time.perf_counter() - started

        movement = charge_adder_tree_movement(self.accelerator, layer)
        return aggregate_layer_run(
            layer,
            [(tile, result.stats, 0) for tile, result in zip(layer.tiles, results)],
            self.accelerator,
            movement,
            checksum=sum(result.checksum for result in results),
            wall_time_s=wall,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor's pooled workers (idempotent).

        Safe to call repeatedly and from ``finally`` blocks: the first call
        shuts the executor down, later calls are no-ops, so a
        failed run can never leak a worker pool.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.executor.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
