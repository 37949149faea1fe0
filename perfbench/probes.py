"""Per-layer timing for the traced run: wrappers around each layer's entry points.

The benchmark never edits the program.  In a traced run it replaces a few
public names with timed wrappers that record one ``probe.<layer>.<what>`` span
into whatever tracer is active, and folds those spans together with the
program's own spans (``host.*``, ``backend.wave``, ``session.*``, worker spans
shipped back by cluster replicas) into per-layer metrics.

Each name is patched where its caller looks it up (``repro.core.compiler``
calls ``schedule_dfg`` from its own module globals, so that is the attribute
replaced), so the wrappers see exactly the calls the program makes.  Forked
cluster replicas inherit the patched attributes; their spans travel back with
the replicas' existing span-shipping protocol.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry


def _wave_args(args, kwargs, result) -> dict:
    programs, inputs = args[0], args[1]
    instances = getattr(inputs, "instances", None)
    if instances is None:
        instances = len(inputs)
    return {
        "instances": int(instances),
        "instructions": sum(len(program) for program in programs),
        "declined": result is None,
    }


#: (module, attribute path, span name, describe(args, kwargs, result) -> span args)
PROBES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.session.session", "Session.compile", "probe.session.compile", None),
    ("repro.session.session", "Session.deploy", "probe.session.deploy", None),
    ("repro.session.session", "Session.crosscheck", "probe.perf.crosscheck", None),
    ("repro.core.compiler", "compile_slice", "probe.core.slice", None),
    ("repro.core.compiler", "fold_weight_slice", "probe.core.fold", None),
    (
        "repro.core.compiler",
        "eliminate_common_subexpressions",
        "probe.core.cse",
        None,
    ),
    ("repro.core.compiler", "build_channel_dfg", "probe.core.dfg", None),
    ("repro.core.compiler", "schedule_dfg", "probe.core.schedule", None),
    (
        "repro.core.compiler",
        "generate_program",
        "probe.core.codegen",
        lambda args, kwargs, result: {"instructions": len(result)},
    ),
    (
        "repro.session.session",
        "build_execution_plan",
        "probe.runtime.build_plan",
        None,
    ),
    (
        "repro.arch.accelerator",
        "Accelerator.deploy_plan",
        "probe.arch.deploy_plan",
        None,
    ),
    (
        "repro.session.session",
        "BatchedInference",
        "probe.inference.engine_init",
        None,
    ),
    (
        "repro.inference.engine",
        "wave_staging_plan",
        "probe.inference.staging_plan",
        None,
    ),
    (
        "repro.inference.engine",
        "execute_program_wave",
        "probe.backends.wave",
        _wave_args,
    ),
    (
        "repro.ap.core",
        "AssociativeProcessor.run_program",
        "probe.backends.tile",
        None,
    ),
)


def _timed(original: Callable, name: str, describe: Optional[Callable]) -> Callable:
    category = name.split(".")[1]

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        extra = describe(args, kwargs, result) if describe is not None else {}
        telemetry.complete(name, start, time.perf_counter(), category=category, **extra)
        return result

    return timed


@contextmanager
def installed():
    """Install every probe for the duration of the block, then restore."""
    restore = []
    try:
        for module_name, path, name, describe in PROBES:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            restore.append((owner, attribute, original))
            setattr(owner, attribute, _timed(original, name, describe))
        yield
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
#: Span-name prefix -> layer (repo module) that owns the span.
LAYER_OF_PREFIX = (
    ("probe.", None),  # probe.<layer>.<what>
    ("session.", "session"),
    ("cluster.", "serving"),
    ("serving.", "serving"),
    ("runtime.", "runtime"),
    ("executor.", "runtime"),
    ("scheduler.", "runtime"),
    ("pipeline.", "runtime"),
    ("accelerator.", "arch"),
    ("host.", "inference"),
    ("device.", "inference"),
    ("backend.", "backends"),
)


def layer_of(name: str) -> Optional[str]:
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer if layer is not None else name.split(".")[1]
    return None


def self_times(events: Iterable) -> Dict[int, float]:
    """Self time (s) of each complete span, keyed by ``id(event)``.

    A span's self time is its duration minus the time covered by its direct
    children: spans of the same process and thread that lie inside it.
    """
    by_thread: Dict[tuple, list] = defaultdict(list)
    for event in events:
        if event.phase == "X":
            by_thread[(event.pid, event.tid)].append(event)
    result: Dict[int, float] = {}
    # A wrapper and the span it wraps read the clock separately, so their
    # endpoints can differ by a fraction of a microsecond.
    slack_us = 1.0
    for spans in by_thread.values():
        spans.sort(key=lambda event: (event.ts_us, -event.dur_us))
        stack: List = []
        for event in spans:
            while stack and event.end_us > stack[-1].end_us + slack_us:
                stack.pop()
            result[id(event)] = event.dur_us
            if stack:
                parent = stack[-1]
                result[id(parent)] -= min(event.dur_us, parent.end_us - event.ts_us)
            stack.append(event)
    return {key: max(0.0, value) / 1e6 for key, value in result.items()}


def in_phase(event, phases: Sequence[Tuple[str, float, float]], kind: str) -> bool:
    start_s = event.ts_us / 1e6
    return any(
        phase == kind and begin <= start_s <= end for phase, begin, end in phases
    )


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


#: Self-time metrics kept in the result: layers with spans on every workload.
SETUP_SELF_LAYERS = ("session", "core", "runtime", "arch", "inference")
REQUEST_SELF_LAYERS = ("session", "inference", "backends")


def layer_metrics(run, events: Sequence) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for each one).

    Set-up figures are per set-up, request figures per request, so counts
    repeat exactly whatever the window held.
    """
    setups = max(1, len(run.setup_s))
    requests = max(1, len(run.latency_s))
    spans = [event for event in events if event.phase == "X"]
    setup = [event for event in spans if in_phase(event, run.phases, "setup")]
    request = [event for event in spans if in_phase(event, run.phases, "request")]

    def total(group, name: str) -> float:
        return sum(event.dur_us for event in group if event.name == name) / 1e6

    def calls(group, name: str) -> List:
        return [event for event in group if event.name == name]

    metrics: Dict[str, float] = {
        "session.compile_s": total(setup, "probe.session.compile") / setups,
        "session.deploy_s": total(setup, "probe.session.deploy") / setups,
        "core.fold_s": total(setup, "probe.core.fold") / setups,
        "core.cse_s": total(setup, "probe.core.cse") / setups,
        "core.dfg_s": total(setup, "probe.core.dfg") / setups,
        "core.schedule_s": total(setup, "probe.core.schedule") / setups,
        "core.codegen_s": total(setup, "probe.core.codegen") / setups,
        "core.slices": len(calls(setup, "probe.core.slice")) / setups,
        "core.instructions": sum(
            event.args["instructions"] for event in calls(setup, "probe.core.codegen")
        )
        / setups,
        "runtime.build_plan_s": total(setup, "probe.runtime.build_plan") / setups,
        "arch.deploy_plan_s": total(setup, "probe.arch.deploy_plan") / setups,
        "arch.cold_events_after_deploy": run.cold_events,
        "inference.engine_init_s": total(setup, "probe.inference.engine_init")
        / setups,
        "inference.staging_plan_s": total(setup, "probe.inference.staging_plan")
        / setups,
    }
    metrics.update(run.counts)

    host = {
        part: total(request, f"host.{part}") / requests
        for part in ("quantize", "lower", "stage")
    }
    for part, seconds in host.items():
        metrics[f"inference.{part}_s"] = seconds
    metrics["inference.host_frac"] = sum(host.values()) / (
        sum(run.latency_s) / requests
    )

    waves = calls(request, "probe.backends.wave")
    declined = [event for event in waves if event.args["declined"]]
    done = [event for event in waves if not event.args["declined"]]
    wave_s = sum(event.dur_us for event in waves) / 1e6
    instances = sum(event.args["instances"] for event in done)
    metrics.update(
        {
            "backends.wave_s": wave_s / requests,
            "backends.waves": len(done) / requests,
            "backends.wave_declines": len(declined) / requests,
            "backends.wave_hit_frac": len(done) / max(1, len(waves)),
            "backends.instances_per_wave": instances / max(1, len(done)),
            "backends.instr_instances_per_s": sum(
                event.args["instances"] * event.args["instructions"] for event in done
            )
            / max(wave_s, 1e-12),
            "backends.tile_calls": len(calls(request, "probe.backends.tile"))
            / requests,
            "backends.tile_s": total(request, "probe.backends.tile") / requests,
        }
    )

    overhead = [
        latency - service for latency, service in zip(run.latency_s, run.service_s)
    ]
    metrics.update(
        {
            "serving.service_ms": _percentile(run.service_s, 50) * 1e3,
            "serving.overhead_ms": _percentile(overhead, 50) * 1e3,
            "serving.overhead_p90_ms": _percentile(overhead, 90) * 1e3,
            "serving.mean_wave_size": len(run.latency_s) / max(1, run.waves),
            "serving.queue_depth_max": max(run.queue_depths, default=0),
            "serving.gen_late_ms": _percentile(run.gen_late_s, 90) * 1e3,
            "serving.rejected": run.rejected,
            "serving.failed": run.errors + run.wrong,
            "perf.crosscheck_consistent": float(run.crosscheck_ok),
            "perf.crosscheck_s": sum(
                event.dur_us for event in calls(spans, "probe.perf.crosscheck")
            )
            / 1e6,
        }
    )

    self_s = self_times(spans)
    for phase, group, count, kept in (
        ("setup", setup, setups, SETUP_SELF_LAYERS),
        ("request", request, requests, REQUEST_SELF_LAYERS),
    ):
        by_layer: Dict[str, float] = defaultdict(float)
        for event in group:
            layer = layer_of(event.name)
            if layer is not None:
                by_layer[layer] += self_s[id(event)]
        for layer in sorted(set(by_layer) | set(kept)):
            metrics[f"{layer}.{phase}_self_s"] = by_layer[layer] / count
    return metrics
