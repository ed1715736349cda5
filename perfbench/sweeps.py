"""Running one workload sweep through `unruh.cli.main` and timing its rows.

A sweep is one `unruh.cli.main(argv)` call per argument list of the
workload, each writing its CSV into a scratch directory. Rows are timed from
outside: `unruh.sweep` evaluates each grid point with one call to a
per-field report function, and the recorder wraps those calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from dataclasses import dataclass

# per-point functions `unruh.sweep` calls once per grid row
ROW_FUNCTIONS = ("dirac_report", "scalar_report", "hardcore_report")


class MissingProgram(RuntimeError):
    """The checkout holds no `unruh` package to benchmark."""


class FirstRowDone(Exception):
    """Raised out of a sweep once its first row with r > 0 is computed."""


def load_unruh(root: str):
    """Import `unruh` from ``root``/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "unruh", "__init__.py")):
        raise MissingProgram(f"no unruh package under {src}")
    sys.path.insert(0, src)
    import unruh.cli
    if not os.path.abspath(unruh.__file__).startswith(os.path.abspath(src) + os.sep):
        raise MissingProgram(f"imported unruh from {unruh.__file__}, not {src}")
    return unruh


class RowRecorder:
    """Context manager that times every row a sweep evaluates.

    ``rows`` collects ``(seconds, report)`` per row, with ``None`` for a row
    that raised. With ``stop_at_positive_r`` the first row with r > 0 ends
    the sweep by raising ``FirstRowDone``.
    """

    def __init__(self, sweep_module, stop_at_positive_r: bool = False):
        self.rows: list[tuple[float, object]] = []
        self._module = sweep_module
        self._stop = stop_at_positive_r
        self._originals: dict = {}

    def __enter__(self):
        for name in ROW_FUNCTIONS:
            fn = getattr(self._module, name, None)
            if fn is not None:
                self._originals[name] = fn
                setattr(self._module, name, self._timed(fn))
        if not self._originals:
            raise MissingProgram(f"unruh.sweep has none of {ROW_FUNCTIONS}")
        return self

    def __exit__(self, *exc):
        for name, fn in self._originals.items():
            setattr(self._module, name, fn)
        return False

    def _timed(self, fn):
        rows, stop = self.rows, self._stop

        def timed(*args, **kwargs):
            report = None
            t0 = time.perf_counter()
            try:
                report = fn(*args, **kwargs)
            finally:
                rows.append((time.perf_counter() - t0, report))
            if stop and report.r > 0:
                raise FirstRowDone()
            return report
        return timed


@dataclass
class Sweep:
    """One timed sweep: wall time, per-row times and what it produced."""

    seconds: float
    row_seconds: list[float]
    reports: list[list]            # per argv: the report of each row, None if it raised
    exit_codes: list[int]
    csv_rows: list[list[dict]]     # per argv: the rows read back from its CSV
    log: str                       # everything the CLI printed


def run_sweep(unruh, argvs: list[list[str]], scratch: str, tracer=None) -> Sweep:
    """One sweep of a workload; only the `unruh.cli.main` calls are timed,
    and traced when a ``tracer`` is given."""
    recorders, codes = [], []
    log = io.StringIO()
    outs = [os.path.join(scratch, f"sweep{i}.csv") for i in range(len(argvs))]
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        for argv, out in zip(argvs, outs):
            with RowRecorder(unruh.sweep) as rec, contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                codes.append(unruh.cli.main(argv + ["--out", out]))
            recorders.append(rec)
        seconds = time.perf_counter() - t0
    return Sweep(seconds=seconds,
                 row_seconds=[s for rec in recorders for s, _ in rec.rows],
                 reports=[[rep for _, rep in rec.rows] for rec in recorders],
                 exit_codes=codes,
                 csv_rows=[unruh.sweep.read_csv_rows(out) if os.path.exists(out) else []
                           for out in outs],
                 log=log.getvalue())
