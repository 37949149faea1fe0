"""The benchmark's workloads: each drives one layer of the stack hardest.

Every workload uses a registry model at its paper sparsity, 4-bit unsigned
activations, the ``batched`` backend and no compile cache.  The seed drives
the ternary weights, the images (uniform in [0, 1)) and the arrival schedule;
the program only ever sees the generated inputs.

Every request's logits are compared byte for byte with
``quantized_reference_forward`` (computed before any clock starts), repeated
requests on the same images must repeat their simulated cost and checksum,
and post-deploy cold lease/reprogram events fail the run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.crossbar import CrossbarConfig, evaluate_crossbar_model
from repro.errors import AdmissionError, ReproError
from repro.inference.reference import quantized_reference_forward
from repro.nn.models.registry import build_model
from repro.nn.stats import model_layer_specs
from repro.perf.model import evaluate_model
from repro.serving import Cluster, ClusterConfig, Frontend
from repro.session import Session

BITS = 4
BACKEND = "batched"


@dataclass(frozen=True)
class Workload:
    """One named workload and the reason it exists."""

    name: str
    why: str
    model: str
    width: float
    images: int
    #: ``closed`` (one client, next request after the last result),
    #: ``open`` (seeded Poisson arrivals through the front door) or
    #: ``cold`` (fresh session per request).
    loop: str
    executor: str = "serial"
    workers: Optional[int] = None
    #: Set-ups per run; ``setup_s`` is their median.  The last one serves.
    setups: int = 3
    #: Distinct image sets cycled through, so requests repeat on the same
    #: images and their simulated cost and checksum must repeat too.
    pool: int = 2
    rate_per_s: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="resnet18-imagenet-single",
            why="the paper's headline model on ImageNet geometry; per-instruction "
            "wave dispatch dominates (level-fused kernels move it most)",
            model="resnet18",
            width=1 / 8,
            images=1,
            loop="closed",
            setups=2,
        ),
        Workload(
            name="vgg9-batch64",
            why="64-image requests spread dispatch over many rows, so array work "
            "and host staging dominate (host dataflow changes show here)",
            model="vgg9",
            width=1 / 16,
            images=64,
            loop="closed",
            executor="thread",
            workers=2,
        ),
        Workload(
            name="vgg9-serve-open",
            why="the only workload on the pipelined per-image path, with queueing, "
            "wave coalescing and IPC on the critical path",
            model="vgg9",
            width=1 / 16,
            images=1,
            loop="open",
            pool=8,
            rate_per_s=1.0,
        ),
        Workload(
            name="vgg9-coldstart",
            why="compile and deploy dominate a fresh session's first result "
            "(setup-time work in the compiler shows here)",
            model="vgg9",
            width=1 / 4,
            images=1,
            loop="cold",
            pool=1,
        ),
    )
}


@dataclass
class Run:
    """Everything one measured pass of a workload observed."""

    setup_s: List[float] = field(default_factory=list)
    first_result_s: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)
    gen_late_s: List[float] = field(default_factory=list)
    queue_depths: List[int] = field(default_factory=list)
    waves: int = 0
    images: int = 0
    #: Seconds of the measured window spent serving (set-up excluded).
    serving_s: float = 0.0
    attempted: int = 0
    rejected: int = 0
    errors: int = 0
    wrong: int = 0
    cold_events: int = 0
    crosscheck_ok: bool = False
    #: Simulated cost per image: (energy uJ, latency ms).
    sim: Optional[Tuple[float, float]] = None
    energy_gain: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    #: (kind, start, end) on the perf_counter clock; kind is setup/request.
    phases: List[Tuple[str, float, float]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        if self.cold_events or not self.crosscheck_ok:
            return self.attempted
        return min(self.attempted, self.rejected + self.errors + self.wrong)


@dataclass(frozen=True)
class Inputs:
    """Seeded inputs, made before any clock starts."""

    pool: List[np.ndarray]
    references: List[np.ndarray]
    #: Open loop: send offsets (s) from the start of the window.
    offsets: List[float]


def prepare(workload: Workload, seed: int, seconds: float) -> Inputs:
    rng = np.random.default_rng([seed, 0])
    model, shape = build_model(workload.model, rng=seed, width=workload.width)
    pool = [
        rng.random((workload.images,) + tuple(shape)) for _ in range(workload.pool)
    ]
    references = [
        quantized_reference_forward(model, images, input_shape=shape, bits=BITS)
        for images in pool
    ]
    offsets: List[float] = []
    if workload.rate_per_s:
        # A Poisson process conditioned on its count: one arrival at each end
        # of the window and the rest uniform in between, so every seed offers
        # the same load over the same span and only the spacing varies.
        count = max(2, round(workload.rate_per_s * seconds) + 1)
        arrivals = np.random.default_rng([seed, 1])
        inner = sorted(arrivals.uniform(0.0, seconds, count - 2).tolist())
        offsets = [0.0, *inner, float(seconds)]
    return Inputs(pool=pool, references=references, offsets=offsets)


def _energy_gain(model, input_shape, compiled) -> float:
    crossbar = evaluate_crossbar_model(
        model_layer_specs(model, input_shape), CrossbarConfig(), activation_bits=BITS
    )
    return crossbar.energy_uj / evaluate_model(compiled).energy_uj


def _record_model(run: Run, session: Session) -> None:
    """Exact counts and analytic figures of the deployed model."""
    compiled = session.compiled
    run.counts = {
        "core.cse_saved_frac": 1.0
        - sum(layer.dfg_ops for layer in compiled.layers)
        / sum(layer.unrolled_ops for layer in compiled.layers),
        "runtime.tiles": session.plan.num_tiles,
        "runtime.plan_instructions": session.plan.num_instructions,
    }
    run.energy_gain = _energy_gain(session.model, session.input_shape, compiled)


class _Repeats:
    """Checks that requests on the same images repeat their cost exactly."""

    def __init__(self) -> None:
        self._first: Dict[int, tuple] = {}

    def check(self, key: int, result) -> bool:
        observed = (
            result.execution.energy_uj,
            result.execution.latency_ms,
            result.checksum,
        )
        return self._first.setdefault(key, observed) == observed


def _session(workload: Workload, seed: int, run: Run) -> Tuple[Session, float]:
    """Construct, compile and deploy one session; returns it and its start."""
    started = time.perf_counter()
    session = Session(
        model=workload.model,
        width=workload.width,
        rng=seed,
        bits=BITS,
        backend=BACKEND,
        executor=workload.executor,
        workers=workload.workers,
    )
    session.compile().deploy()
    finished = time.perf_counter()
    run.setup_s.append(finished - started)
    run.phases.append(("setup", started, finished))
    return session, started


def _serve_one(
    session: Session, images, reference, run: Run, repeats: _Repeats, key: int
):
    """One closed-loop request: time it, check it, record it."""
    run.attempted += 1
    started = time.perf_counter()
    try:
        result = session.infer(images)
    except ReproError:
        run.errors += 1
        return None
    finished = time.perf_counter()
    run.phases.append(("request", started, finished))
    run.latency_s.append(finished - started)
    run.service_s.append(result.execution.wall_time_s)
    run.images += result.images
    run.waves += 1
    if not (
        np.array_equal(result.logits, reference) and repeats.check(key, result)
    ):
        run.wrong += 1
    return result


def _finish_session(run: Run, session: Session, first) -> None:
    if first is not None:
        execution = first.execution
        run.sim = (
            execution.energy_uj / first.images,
            execution.latency_ms / first.images,
        )
        run.crosscheck_ok = session.crosscheck(execution).consistent
    _record_model(run, session)


def closed_loop(
    workload: Workload, seed: int, seconds: float, inputs: Inputs, trace: bool
) -> Run:
    """One client; the next request is sent when the last result is back."""
    run = Run()
    for _ in range(workload.setups - 1):
        session, _ = _session(workload, seed, run)
        session.close()
    session, constructed = _session(workload, seed, run)
    try:
        before = session.residency.snapshot()
        repeats = _Repeats()
        first = None
        window = time.perf_counter()
        previous_end = window
        index = 0
        while True:
            key = index % workload.pool
            run.gen_late_s.append(time.perf_counter() - previous_end)
            result = _serve_one(
                session, inputs.pool[key], inputs.references[key], run, repeats, key
            )
            previous_end = time.perf_counter()
            if index == 0:
                run.first_result_s.append(previous_end - constructed)
                first = result
            index += 1
            if previous_end - window >= seconds:
                break
        run.serving_s = previous_end - window
        after = session.residency
        run.cold_events = (after.lease_events - before.lease_events) + (
            after.reprogram_events - before.reprogram_events
        )
        _finish_session(run, session, first)
    finally:
        session.close()
    return run


def cold_start(
    workload: Workload, seed: int, seconds: float, inputs: Inputs, trace: bool
) -> Run:
    """Fresh session per request: construct, compile, deploy, infer, check."""
    run = Run()
    repeats = _Repeats()
    window = previous_end = time.perf_counter()
    first = None
    while True:
        run.gen_late_s.append(time.perf_counter() - previous_end)
        session, constructed = _session(workload, seed, run)
        try:
            before = session.residency.snapshot()
            result = _serve_one(
                session, inputs.pool[0], inputs.references[0], run, repeats, 0
            )
            previous_end = time.perf_counter()
            run.first_result_s.append(previous_end - constructed)
            after = session.residency
            run.cold_events += (after.lease_events - before.lease_events) + (
                after.reprogram_events - before.reprogram_events
            )
            if first is None:
                first = result
                _finish_session(run, session, first)
        finally:
            session.close()
        if time.perf_counter() - window >= seconds:
            break
    run.serving_s = sum(run.latency_s)
    return run


class _SeededClusterConfig(ClusterConfig):
    """Cluster configuration whose weights come from the workload seed.

    ``ClusterConfig.session_config`` leaves the weight rng at its default, so
    every cluster would serve the same weights whatever the seed; the
    replicas adopt the parent's compiled artifacts, so seeding the parent's
    compile seeds them all.
    """

    def session_config(self):
        return replace(super().session_config(), rng=self.seed)


def _cluster_config(workload: Workload, seed: int, trace: bool) -> ClusterConfig:
    return _SeededClusterConfig(
        model=workload.model,
        width=workload.width,
        bits=BITS,
        backend=BACKEND,
        seed=seed,
        replicas=1,
        pipeline=True,
        trace=trace,
    )


def _start_cluster(config: ClusterConfig, run: Run) -> Tuple[Cluster, float]:
    started = time.perf_counter()
    cluster = Cluster(config)
    cluster.start()
    finished = time.perf_counter()
    run.setup_s.append(finished - started)
    run.phases.append(("setup", started, finished))
    return cluster, started


async def _open_loop(
    cluster: Cluster, inputs: Inputs, run: Run, constructed: float
) -> None:
    """Send on the seeded schedule; time each request from when it was due."""
    frontend = Frontend(cluster)
    await frontend.start()
    loop = asyncio.get_running_loop()
    window = time.perf_counter()
    last_done = [window]

    async def request(index: int, due: float) -> None:
        key = index % len(inputs.pool)
        try:
            result = await frontend.request(inputs.pool[key])
        except AdmissionError:
            run.rejected += 1
            return
        except ReproError:
            run.errors += 1
            return
        done = time.perf_counter()
        run.latency_s.append(done - due)
        run.service_s.append(result.wall_s)
        run.images += result.images
        last_done[0] = max(last_done[0], done)
        if not np.array_equal(result.logits, inputs.references[key]):
            run.wrong += 1
        if index == 0:
            run.first_result_s.append(time.perf_counter() - constructed)

    tasks = []
    try:
        for index, offset in enumerate(inputs.offsets):
            due = window + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            run.gen_late_s.append(time.perf_counter() - due)
            run.queue_depths.append(frontend.depth())
            run.attempted += 1
            tasks.append(loop.create_task(request(index, due)))
        await asyncio.gather(*tasks)
    finally:
        await frontend.close()
    run.waves = frontend.waves
    run.serving_s = last_done[0] - window
    run.phases.append(("request", window, last_done[0]))


def open_loop(
    workload: Workload, seed: int, seconds: float, inputs: Inputs, trace: bool
) -> Run:
    """Seeded Poisson arrivals through ``Frontend`` onto one pipelined replica."""
    run = Run()
    config = _cluster_config(workload, seed, trace)
    for _ in range(workload.setups - 1):
        cluster, _ = _start_cluster(config, run)
        cluster.close()
    cluster, constructed = _start_cluster(config, run)
    try:
        asyncio.run(_open_loop(cluster, inputs, run, constructed))
        stats = cluster.stats()
        run.cold_events = sum(
            replica.cold_leases + replica.cold_reprograms
            for replica in stats.replicas
        )
        # The replicas' simulated cost is not shipped back; an in-process
        # session on the same artifacts and configuration serves the first
        # image set twice, outside the window, to report and repeat it.
        session = Session(config.session_config())
        try:
            session.adopt(cluster.model, cluster.input_shape, cluster.compiled)
            session.deploy()
            repeats = _Repeats()
            results = [session.infer(inputs.pool[0]) for _ in range(2)]
            if not all(
                np.array_equal(result.logits, inputs.references[0])
                and repeats.check(0, result)
                for result in results
            ):
                run.wrong += 1
            _finish_session(run, session, results[0])
        finally:
            session.close()
    finally:
        cluster.close()
    return run


RUNNERS: Dict[str, Callable[..., Run]] = {
    "closed": closed_loop,
    "cold": cold_start,
    "open": open_loop,
}
