"""Run one benchmark workload, check every output, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload vgg9-serve-open --seed 1 --seconds 40 --trace 0

The program under test is imported from ``src/`` next to this directory and
nowhere else.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs half the window untraced and half with the in-program tracer and the
benchmark's wrappers installed, and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object whose
metrics are exactly those ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Pinned before NumPy loads: one BLAS thread, so the executor's workers are
#: the only parallelism, and no environment switch changes the program.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "REPRO_LOG": "ERROR",
}
UNSET_ENV = ("REPRO_AP_BACKEND", "REPRO_HOST_DATAFLOW", "REPRO_COMPILE_CACHE")

#: The metric contract: names, units and bounds of every reported metric.
CONTRACT = ROOT / "BENCHMARK.json"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)


def _import_program():
    """Import ``repro`` from this checkout's ``src/``; fail if it is not there."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program source at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SOURCE:
        raise ImportError(f"repro imported from {repro.__file__}, not {SOURCE}")
    return repro


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _context(repro, workload) -> dict:
    import networkx
    import numpy

    return {
        "workload": workload.name,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "repro": repro.__version__,
        "env": {name: os.environ.get(name) for name in (*PINNED_ENV, *UNSET_ENV)},
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(run) -> dict:
    # A run whose first request failed has no simulated cost; it is reported
    # as failed, so the placeholder never passes for a measurement.
    energy, latency = run.sim if run.sim is not None else (0.0, 0.0)
    return {
        "setup_s": statistics.median(run.setup_s),
        "first_result_s": (
            statistics.median(run.first_result_s) if run.first_result_s else math.nan
        ),
        "latency_p50_ms": statistics.median(run.latency_s) * 1e3,
        "images_per_s": run.images / run.serving_s,
        "peak_rss_mb": _peak_rss_mb(),
        "sim_energy_uj_per_image": energy,
        "sim_latency_ms_per_image": latency,
        "energy_gain_vs_crossbar": run.energy_gain,
    }


def _describe(run) -> str:
    return (
        f"requests {len(run.latency_s)} attempted {run.attempted} "
        f"failed {run.failed} (rejected {run.rejected}, errors {run.errors}, "
        f"wrong {run.wrong}, cold events {run.cold_events}, "
        f"crosscheck consistent {run.crosscheck_ok})"
    )


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_environment()
    try:
        repro = _import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    import probes
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    contract = json.loads(CONTRACT.read_text())
    runner = workloads.RUNNERS[workload.loop]
    if not args.trace:
        inputs = workloads.prepare(workload, args.seed, args.seconds)
        passes = [runner(workload, args.seed, args.seconds, inputs, False)]
        metrics = end_to_end(passes[0])
        reported = contract["end_to_end"]
    else:
        # Half the window untraced, half traced, so a traced run costs what an
        # untraced one does; the untraced half prices the tracing overhead.
        seconds = args.seconds / 2
        inputs = workloads.prepare(workload, args.seed, seconds)
        untraced = runner(workload, args.seed, seconds, inputs, False)
        from repro import telemetry

        tracer = telemetry.install(telemetry.Tracer(capacity=1_000_000))
        try:
            with probes.installed():
                traced = runner(workload, args.seed, seconds, inputs, True)
        finally:
            telemetry.uninstall()
        if tracer.dropped:
            print(f"perfbench: tracer dropped {tracer.dropped} spans", file=sys.stderr)
            return 1
        passes = [untraced, traced]
        metrics = probes.layer_metrics(traced, tracer.events())
        metrics["trace.overhead_frac"] = (
            statistics.median(traced.latency_s) / statistics.median(untraced.latency_s)
            - 1.0
        )
        reported = contract["per_layer"]

    units = {metric["name"]: metric["unit"] for metric in reported}
    attempted = sum(run.attempted for run in passes)
    failed = sum(run.failed for run in passes)
    print(f"workload {workload.name}: {workload.why}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, '')}")
    for run in passes:
        print("  " + _describe(run))
        if len(run.latency_s) >= 100:
            p90 = statistics.quantiles(run.latency_s, n=10)[-1] * 1e3
            print(f"  latency_p90_ms {p90:.6g} ms (n={len(run.latency_s)})")
    print(f"  failed_frac {failed / attempted:.6g} (n={attempted})")
    print("context " + json.dumps(_context(repro, workload), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
