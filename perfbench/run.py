"""Benchmark of `unruh-sweep`: whole figure sweeps through `unruh.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `unruh` is imported from its ``src``. The
load is a closed loop: one process, one sweep at a time, no concurrency,
with the BLAS thread count fixed at 1. One fresh worker process
(worker.py) runs an untimed warm-up sweep and then times sweeps for
``--seconds``. Every row is checked (checks.py), so a fast wrong answer
counts as failed.

The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics of one
more sweep that the worker runs under the tracer (spans.py). The line
before it records the machine and the details of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from checks import p90
from spans import LAYER_METRICS
from sweeps import MissingProgram
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_ENV = {v: "1" for v in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 5
TIMEOUT_S = 170

END_TO_END_UNITS = {"sweep_s": "s", "points_per_s": "1/s", "point_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_row_frac": "fraction"}
TRACE_METRICS = ("sweep.points", "sweep.rows_failed", "sweep.oracle_discrepancy_max",
                 "trace.sweep_s", "trace.overhead_s", "trace.spans",
                 "trace.accounted_frac")


def per_layer_unit(name: str) -> str:
    if name.endswith("_ops"):
        return "ops_computed"
    if name.endswith("_bytes"):
        return "bytes_computed"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("discrepancy_max"):
        return "abs"
    if name.endswith("_s") or name == "measures.s":
        return "s"
    return "count"


PER_LAYER_UNITS = {n: per_layer_unit(n) for n in LAYER_METRICS + TRACE_METRICS}


def child(script: str, *args) -> subprocess.CompletedProcess:
    """Run one of the benchmark's scripts in a fresh interpreter and wait."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *map(str, args)],
                          env={**os.environ, **THREAD_ENV}, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode == 2:
        raise MissingProgram(proc.stderr.strip())
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed:\n{proc.stderr.strip()}")
    return proc


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; returns (result line, details)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "unruh", "__init__.py")):
        raise MissingProgram(f"no unruh package under {os.path.join(ROOT, 'src')}")
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as scratch:
        setup = []
        for _ in range(0 if trace else SETUP_PROBES):
            t0 = time.perf_counter()
            child("probe.py", workload.name, seed, scratch)
            setup.append(time.perf_counter() - t0)
        worker = json.loads(child("worker.py", workload.name, seed, seconds,
                                  int(trace), scratch).stdout.splitlines()[-1])

    sweeps = worker["sweep_seconds"]
    row_p90, row_samples = p90(worker["row_seconds"])
    attempted, failed, reasons = worker["attempted"], worker["failed"], worker["reasons"]
    details = {
        "workload": workload.name, "seed": seed, "argvs": worker["argvs"],
        "machine": worker["machine"],
        "load": "closed loop: one process, one sweep at a time",
        "sweep_seconds": sweeps, "warmup_seconds": worker["warmup_seconds"],
        "row_samples": row_samples, "setup_seconds": setup, "faults": reasons[:20]}
    if trace:
        metrics, units = worker["layer_metrics"], PER_LAYER_UNITS
    else:
        metrics = {
            "sweep_s": statistics.median(sweeps),
            "points_per_s": statistics.median(
                ok / t for ok, t in zip(worker["sweep_ok_rows"], sweeps)),
            "point_ms_p90": row_p90 * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": worker["peak_rss_mb"],
            "ok_row_frac": (attempted - failed) / attempted}
        units = END_TO_END_UNITS
    result = {"correct": not reasons, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, details = measure(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("detail " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
