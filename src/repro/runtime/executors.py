"""Pluggable executors: run staged waves serially or on worker pools.

Three executors ship with the runtime:

* ``serial`` - one work item after another in the calling process.
* ``parallel`` - a process pool (``workers`` processes); the default parallel
  executor, immune to the GIL, intended for the Python-heavy ``reference``
  backend and for many-tile plans.
* ``thread`` - a thread pool; lighter start-up, useful when the ``vectorized``
  backend spends its time in NumPy kernels that release the GIL.

Every executor exposes two dispatch surfaces over one device contract,
:meth:`~repro.ap.backends.base.ExecutionBackend.execute_wave`:

* :meth:`Executor.map_wave` - one staged wave group of functional inference
  on one backend.  Native-wave backends run it in the calling thread;
  per-instance backends split its instances over the pool.
* :meth:`Executor.map_tasks` - an order-preserving map of a picklable worker
  over payloads: the chunk fan-out behind ``map_wave``, and the synthetic
  scheduler's per-tile one-instance waves (:mod:`repro.runtime.scheduler`).

Determinism: a work item's result depends only on its programs and inputs,
and the backend contract guarantees byte-identical
:class:`~repro.cam.stats.CAMStats` across backends, so every executor -
whatever its scheduling order - produces the same per-instance results and
the same order-independent reductions.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Type, Union

from repro import telemetry
from repro.ap.backends import BackendSpec, resolve_backend
from repro.ap.backends.base import StagedWaveInputs, WaveResult
from repro.errors import ConfigurationError
from repro.rtm.timing import RTMTechnology


def _wave_chunk(payload) -> List[WaveResult]:
    """Module-level worker: one staged wave (or a contiguous chunk of one)."""
    backend, programs, staged, rows, columns, technology = payload
    return backend.execute_wave(programs, staged, rows, columns, technology)


def _traced_task(item):
    """Run one (fn, payload) task under a local span capture and ship both.

    The process-pool shipping protocol: the child cannot record into the
    parent's tracer (under ``fork`` it inherits a dead copy), so the spans
    its task opens are captured locally and returned alongside the result;
    the parent unwraps the pair and absorbs the batch.  Timestamps need no
    re-basing - ``perf_counter`` is the shared monotonic clock on Linux.
    """
    fn, payload = item
    with telemetry.capture() as tracer:
        result = fn(payload)
    return result, tuple(tracer.drain())


def mp_context():
    """The multiprocessing context the runtime spawns worker processes with.

    Prefers ``fork`` where the platform offers it: forked workers inherit
    the parent's compiled programs and model weights without pickling them,
    which is what keeps per-worker start-up cheap for both the
    :class:`ParallelExecutor` pool and the cluster serving replicas
    (:mod:`repro.serving`).  Falls back to the platform default context
    (``spawn`` on macOS/Windows), where every argument must be picklable.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class Executor:
    """Base class of the wave executors.

    Subclasses implement :meth:`map_tasks` - a generic order-preserving map of
    a picklable worker function over payloads.  The synthetic scheduler's
    one-instance tile waves and the per-instance chunks of inference waves
    (:meth:`map_wave`) both dispatch through it, so every executor serves
    both workloads with one scheduling policy.
    """

    #: Registry name (e.g. ``"serial"``).
    name = "abstract"
    workers = 1
    #: Whether workers run in other processes and must ship span batches
    #: back with results (see ``_traced_task``).  In-process executors record
    #: straight into the installed tracer.
    ships_spans = False

    def map_tasks(self, fn: Callable, payloads: Sequence) -> List:
        """Apply ``fn`` to every payload, returning results in payload order."""
        raise NotImplementedError

    def map_wave(
        self,
        backend: BackendSpec,
        programs: Sequence,
        staged: StagedWaveInputs,
        rows: int,
        columns: int,
        technology: Optional[RTMTechnology] = None,
    ) -> List[WaveResult]:
        """Execute one staged wave group, returning results in instance order.

        Backends with a native wave kernel (``supports_program_wave``) run
        the whole group in the calling thread: one host call per group beats
        any worker-pool fan-out of interpreted per-instance work, and it
        keeps results, counters and ledgers byte-identical across executors.
        Per-instance backends split the instance range into contiguous
        chunks, one per worker, dispatched through :meth:`map_tasks`.
        """
        backend_class = resolve_backend(backend)
        total = staged.instances
        native = backend_class.supports_program_wave
        with telemetry.span(
            "executor.map_wave", executor=self.name, instances=total, native=native
        ):
            if native:
                return backend_class.execute_wave(
                    programs, staged, rows, columns, technology
                )
            chunks = max(1, min(self.workers, total))
            bounds = [total * index // chunks for index in range(chunks + 1)]
            payloads = [
                (backend_class, programs, staged.slice(start, stop), rows, columns,
                 technology)
                for start, stop in zip(bounds, bounds[1:])
            ]
            results: List[WaveResult] = []
            for chunk in self.map_tasks(_wave_chunk, payloads):
                results.extend(chunk)
            return results

    def close(self) -> None:
        """Release pooled workers (no-op for poolless executors)."""


class SerialExecutor(Executor):
    """Runs every work item in the calling process, one after another."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None) -> None:
        # ``workers`` is accepted (and ignored) so executors are
        # constructor-compatible; the serial executor always uses one.
        self.workers = 1

    def map_tasks(self, fn: Callable, payloads: Sequence) -> List:
        return [fn(payload) for payload in payloads]


class ParallelExecutor(Executor):
    """Fans work items out over a process pool (order-preserving ``map``)."""

    name = "parallel"
    ships_spans = True

    def __init__(self, workers: Optional[int] = None) -> None:
        import os

        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=mp_context()
            )
        return self._pool

    def map_tasks(self, fn: Callable, payloads: Sequence) -> List:
        payloads = list(payloads)
        if self.workers <= 1 or len(payloads) <= 1:
            return SerialExecutor().map_tasks(fn, payloads)
        pool = self._ensure_pool()
        chunksize = max(1, len(payloads) // (self.workers * 4))
        tracer = telemetry.get_tracer()
        if tracer is not None and self.ships_spans:
            shipped = list(
                pool.map(
                    _traced_task,
                    [(fn, payload) for payload in payloads],
                    chunksize=chunksize,
                )
            )
            results = []
            for result, events in shipped:
                tracer.absorb(events)
                results.append(result)
            return results
        return list(pool.map(fn, payloads, chunksize=chunksize))

    def close(self) -> None:
        # Idempotent: shutdown() waits for running tasks, then the pool is
        # dropped so a second close is a no-op.
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


class ThreadExecutor(ParallelExecutor):
    """Fans work items out over a thread pool (shares the process heap).

    Worker threads record spans straight into the installed tracer (their
    distinct tids become per-worker tracks in the Chrome export), so no
    shipping protocol is needed.
    """

    name = "thread"
    ships_spans = False

    def _ensure_pool(self) -> ThreadPoolExecutor:  # type: ignore[override]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)  # type: ignore[assignment]
        return self._pool  # type: ignore[return-value]


#: Specification accepted wherever an executor can be selected.
ExecutorSpec = Union[str, Executor, Type[Executor]]

_EXECUTORS: Dict[str, Type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ParallelExecutor.name: ParallelExecutor,
    ThreadExecutor.name: ThreadExecutor,
}


def available_executors() -> List[str]:
    """Names of all registered executors, sorted."""
    return sorted(_EXECUTORS)


def resolve_executor(spec: ExecutorSpec, workers: Optional[int] = None) -> Executor:
    """Resolve an executor specification (name, class or instance).

    ``workers`` sizes the executor constructed from a name or class; an
    already-constructed instance carries its own worker count, so combining
    the two is rejected rather than silently ignoring one of them.
    """
    if isinstance(spec, Executor):
        if workers is not None and workers != spec.workers:
            raise ConfigurationError(
                f"workers={workers} conflicts with the provided executor "
                f"instance ({spec.name}, workers={spec.workers}); construct "
                f"the instance with the desired worker count instead"
            )
        return spec
    if isinstance(spec, str):
        try:
            return _EXECUTORS[spec](workers=workers)
        except KeyError:
            raise ConfigurationError(
                f"unknown executor {spec!r}; "
                f"available: {', '.join(available_executors())}"
            ) from None
    if isinstance(spec, type) and issubclass(spec, Executor):
        return spec(workers=workers)
    raise ConfigurationError(
        f"executor must be a name, class or instance, got {spec!r}"
    )
