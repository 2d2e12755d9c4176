"""Repository benchmark: batched parameter-space analyses and the
campaign service, end to end, with an optional traced run.

Run from the repository root::

    python3 perfbench/run.py --workload psa2d-dense --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with timing wrappers installed around the package's
public functions and prints the per-layer metrics. The last line of
standard output is one JSON object; the lines before it are a
readable report and the run's context. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned for every run, before numpy loads its BLAS.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("psa2d-dense", "sobol-stiff", "service-stream")
#: Seed used unless one is given, and the seed kept back for
#: re-checking later performance claims.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
#: Fresh processes that each time one set-up; with the run's own
#: set-up they give the median reported as setup_s.
SETUP_PROBES = 2
#: Where traced runs write their spans, and the service its journals.
OUT_DIR = HERE / "out"

END_TO_END_UNITS = {"setup_s": "s", "sims_per_s": "1/s",
                    "jobs_per_s": "1/s", "job_latency_p50_s": "s",
                    "job_latency_tail_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Put the checkout's ``src`` first on the path and import the
    benchmark modules (which import the package)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import workloads
    return workloads


def set_up(args):
    """Import the package, build the inputs and run one warm-up
    operation; return the workloads module, the workload and seconds."""
    started = time.perf_counter()
    workloads = import_package()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    workload.setup()
    return workloads, workload, time.perf_counter() - started


def probe_setup(args) -> float:
    """Set-up time of one fresh process running this script."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=150, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines()
                        if "openblas" in line.lower()})
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def context(args, workloads, workload, outcome, references) -> dict:
    import numpy
    import scipy
    tail = workload.tail_percentile
    samples = len(outcome.latencies)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "operations": samples,
        "tail_percentile": tail,
        "samples_beyond_tail": int(round(samples * (1 - tail / 100.0))),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "fail_frac": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems,
        "band_factor": workloads.BAND_FACTOR,
        **references,
        **workloads.lsoda_context(args.seed),
    }


def end_to_end(workload, outcome, setup_seconds, workloads) -> dict:
    latencies = outcome.latencies
    return {
        "setup_s": setup_seconds,
        "sims_per_s": outcome.sims_ok / outcome.window_seconds,
        "jobs_per_s": outcome.operations_ok / outcome.window_seconds,
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_tail_s": workloads.percentile(
            latencies, workload.tail_percentile),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, workload, seconds = set_up(args)
        workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0
    workloads, workload, setup_seconds = set_up(args)
    try:
        references = workload.references()
        if args.trace == 0:
            setups = [setup_seconds] + [probe_setup(args)
                                        for _ in range(SETUP_PROBES)]
            setup_seconds = statistics.median(setups)
        outcome = workload.run(args.seconds, traced=bool(args.trace))
    finally:
        workload.close()
    info = context(args, workloads, workload, outcome, references)
    if args.trace:
        from tracing import unit_of
        metrics = dict(outcome.layers)
        metrics["trace.overhead_frac"] = outcome.overhead_frac
        units = {name: unit_of(name) for name in metrics}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        workload.recorder.write(trace_file)
        print(f"waterfall ({args.workload}, self seconds per operation; "
              f"spans in {trace_file.relative_to(ROOT)}):")
        total = sum(outcome.waterfall.values())
        for layer, seconds in outcome.waterfall.items():
            print(f"  {layer:22s} {seconds:12.6f} s  "
                  f"{100.0 * seconds / total:6.2f} %")
        print(f"  {'operation wall time':22s} {total:12.6f} s  "
              f"trace.overhead_frac {outcome.overhead_frac:+.4f}")
    else:
        info["setup_samples_s"] = setups
        metrics = end_to_end(workload, outcome, setup_seconds, workloads)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':28s} {info['fail_frac']:14.6g} ratio")
    print("context " + json.dumps(info, sort_keys=True))
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
