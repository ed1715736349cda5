"""Correctness of sweep rows, and the benchmark's order statistics.

A row is a tuple in CSV column order. It is wrong when it is missing (the
point raised), when a value is not finite, when it breaks a conservation
law of its field, when its oracle discrepancy exceeds the route tolerance,
or when it differs from the committed reference by more than 1e-12.
"""

from __future__ import annotations

import json
import math
import os
import random

from workloads import ORACLE_TOL

HERE = os.path.dirname(os.path.abspath(__file__))

COLUMNS = ("r", "I_AR", "I_ARbar", "I_RRbar", "N_AR", "N_ARbar", "N_RRbar",
           "logN_RRbar", "trace_deficit", "oracle_discrepancy")
VALUE_COLUMNS = COLUMNS[:-1]
VALUE_TOL = 1e-12

# (name, deviation of a row, tolerance): the laws `unruh-sweep` checks by
# default for each field, at its tolerances, applied row by row
LAWS = {
    "dirac": (("I_AR + I_ARbar = 2", lambda v: abs(v["I_AR"] + v["I_ARbar"] - 2.0), 1e-10),
              ("N_AR + N_ARbar = 1/2", lambda v: abs(v["N_AR"] + v["N_ARbar"] - 0.5), 1e-10)),
    "scalar": (("I_AR + I_ARbar = 2", lambda v: abs(v["I_AR"] + v["I_ARbar"] - 2.0), 1e-8),
               ("N_ARbar = 0", lambda v: abs(v["N_ARbar"]), 1e-12)),
    "hardcore": (("N_ARbar = 0", lambda v: abs(v["N_ARbar"]), 1e-12),),
}


def row_faults(row, field: str, oracle_tol: float | None, reference=None) -> list[str]:
    """Why ``row`` is wrong; empty when it passes.

    ``oracle_tol`` is None when the sweep ran without the constructive
    route. ``reference`` is the committed row for the same grid point.
    """
    if row is None:
        return ["the point raised instead of giving a row"]
    v = dict(zip(COLUMNS, row))
    faults = [f"{k} is not finite" for k in VALUE_COLUMNS if not math.isfinite(v[k])]
    if faults:
        return faults
    faults += [f"{name} off by {dev(v):.3e} > {tol:.0e}"
               for name, dev, tol in LAWS[field] if not dev(v) <= tol]
    if oracle_tol is not None and not v["oracle_discrepancy"] <= oracle_tol:
        faults.append(f"oracle_discrepancy {v['oracle_discrepancy']:.3e} "
                      f"> {oracle_tol:.0e}")
    if reference is not None:
        ref = dict(zip(COLUMNS, reference))
        faults += [f"{k} = {v[k]!r} differs from reference {ref[k]!r}"
                   for k in VALUE_COLUMNS if not abs(v[k] - ref[k]) <= VALUE_TOL]
    return faults


def load_reference(workload) -> list[list[tuple]]:
    """Committed rows of the workload at seed 0, one list per sweep argv."""
    with open(os.path.join(HERE, "reference", f"{workload.name}.json")) as f:
        ref = json.load(f)
    if ref["argvs"] != workload.argvs(0):
        raise ValueError(f"reference for {workload.name} was made from other argv")
    return [[tuple(math.nan if v is None else v for v in row) for row in rows]
            for rows in ref["rows"]]


def sweep_faults(workload, sweep, reference) -> tuple[int, list[str]]:
    """(failed rows, reasons) of one sweep; a row missing from the sweep or
    its CSV counts as failed."""
    tol = ORACLE_TOL[workload.field] if workload.oracle else None
    failed, reasons = 0, []
    for k, (reports, csv_rows, code) in enumerate(
            zip(sweep.reports, sweep.csv_rows, sweep.exit_codes)):
        missing = workload.steps - len(reports)
        if missing or len(csv_rows) != workload.steps:
            reasons.append(f"sweep {k}: {len(reports)} rows computed, "
                           f"{len(csv_rows)} written, {workload.steps} points")
        failed += max(missing, 0)
        nan_rows = sum(math.isnan(row["I_AR"]) for row in csv_rows)
        if nan_rows != reports.count(None):
            reasons.append(f"sweep {k}: {nan_rows} NaN rows in the CSV, "
                           f"{reports.count(None)} rows raised")
        row_failed = 0
        for i, rep in enumerate(reports[:workload.steps]):
            faults = row_faults(None if rep is None else rep.as_row(), workload.field,
                                tol, reference[k][i] if reference else None)
            if faults:
                row_failed += 1
                reasons.append(f"sweep {k} row {i}: " + "; ".join(faults))
        failed += row_failed
        if code != 0 and not (row_failed or missing):
            reasons.append(f"sweep {k}: unruh-sweep exited {code}\n{sweep.log}")
    return failed, reasons


def recheck(unruh, workload, seed: int, sweep) -> tuple[int, list[str], list[float]]:
    """Constructive re-check of sampled rows of a sweep run without it: the
    largest r and ``recheck_rows - 1`` rows drawn from the seed. Returns the
    rows that failed, why, and the oracle discrepancies seen."""
    reports = [rep for rep in sweep.reports[0] if rep is not None]
    if len(reports) < workload.recheck_rows:
        return workload.recheck_rows, ["too few rows to re-check"], []
    picks = [len(reports) - 1] + random.Random(seed).sample(
        range(len(reports) - 1), workload.recheck_rows - 1)
    failed, reasons, discrepancies = 0, [], []
    for i in picks:
        rep = reports[i]
        try:
            again = unruh.scalar_report(rep.r, oracle=True)
        except unruh.UnruhError as exc:
            faults = [f"raised {exc}"]
        else:
            discrepancies.append(again.oracle_discrepancy)
            faults = row_faults(again.as_row(), workload.field,
                                ORACLE_TOL[workload.field], reference=rep.as_row())
        if faults:
            failed += 1
            reasons.append(f"re-check of r={rep.r!r}: " + "; ".join(faults))
    return failed, reasons, discrepancies


def p90(samples) -> tuple[float, int]:
    """90th percentile of ``samples`` by the nearest-rank rule (a sample,
    never interpolated), and the sample count it rests on. The rank is
    computed in integers, so for 100 samples it is exactly the 90th."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(-(-90 * len(ordered) // 100), 1)
    return ordered[rank - 1], len(ordered)
