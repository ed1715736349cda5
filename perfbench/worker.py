"""One benchmark worker: a fresh process that sweeps a workload.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SCRATCH_DIR

It runs one untimed warm-up sweep and reads its peak RSS, then repeats the
sweep while another one still fits in SECONDS (at least once). With
TRACE=1 it runs one more sweep under the tracer. It checks every row,
the warm-up's included, and prints one JSON object for run.py.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata

from checks import load_reference, recheck, sweep_faults
from spans import Tracer, layer_metrics
from sweeps import MissingProgram, load_unruh, run_sweep
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def machine_record() -> dict:
    import numpy
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv) -> int:
    name, seed, seconds, trace, scratch = argv
    workload, seed, seconds = WORKLOADS[name], int(seed), float(seconds)
    try:
        unruh = load_unruh(ROOT)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    argvs = workload.argvs(seed)
    reference = load_reference(workload) if seed == 0 else None

    warm = run_sweep(unruh, argvs, scratch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = []
    t0 = time.perf_counter()
    while True:
        timed.append(run_sweep(unruh, argvs, scratch))
        typical = statistics.median(s.seconds for s in timed)
        if time.perf_counter() - t0 + typical > seconds:
            break
    tracer = Tracer() if trace == "1" else None
    traced = run_sweep(unruh, argvs, scratch, tracer=tracer) if tracer else None

    swept = [warm] + timed + ([traced] if traced else [])
    checked = {id(s): sweep_faults(workload, s, reference) for s in swept}
    reasons = [why for _, whys in checked.values() for why in whys]
    failed = sum(rows_failed for rows_failed, _ in checked.values())
    discrepancies = []
    if workload.recheck_rows:
        rows_failed, whys, discrepancies = recheck(unruh, workload, seed, timed[0])
        reasons += whys
        failed += rows_failed
    out = {
        "machine": machine_record(), "argvs": argvs, "peak_rss_mb": peak_rss_mb,
        "warmup_seconds": warm.seconds,
        "sweep_seconds": [s.seconds for s in timed],
        "row_seconds": [t for s in timed for t in s.row_seconds],
        "attempted": workload.rows_per_sweep * len(swept) + workload.recheck_rows,
        "failed": failed,
        "sweep_ok_rows": [workload.rows_per_sweep - checked[id(s)][0] for s in timed],
        "reasons": reasons}
    if traced:
        metrics = layer_metrics(tracer)
        traced_rows = [rep for reports in traced.reports for rep in reports]
        discrepancies += [rep.oracle_discrepancy for rep in traced_rows
                          if rep is not None and not math.isnan(rep.oracle_discrepancy)]
        metrics.update({
            "sweep.points": len(traced_rows),
            "sweep.rows_failed": checked[id(traced)][0],
            "sweep.oracle_discrepancy_max": max(discrepancies, default=0.0),
            "trace.sweep_s": traced.seconds,
            "trace.overhead_s": traced.seconds - statistics.median(out["sweep_seconds"]),
            "trace.spans": len(tracer.start),
            "trace.accounted_frac": sum(
                v for k, v in metrics.items()
                if k.endswith(".self_s") or k == "measures.s") / traced.seconds})
        out["layer_metrics"] = metrics
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
