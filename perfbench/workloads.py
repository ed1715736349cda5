"""The benchmark's workloads: `unruh-sweep` argument lists and their grids.

Seed 0 runs each workload's argument list verbatim. Any other seed shifts
the grid inside the same r range: the first point moves up by a fraction u
of half a grid step and the last point down by the rest of that half step,
with u drawn from the seed. The program only ever sees the resulting argv.
Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    field: str                      # "dirac", "scalar" or "hardcore"
    sweeps: tuple[tuple[str, ...], ...]  # one `unruh-sweep` argv per sweep, at seed 0
    r_min: float
    r_max: float
    steps: int
    oracle: bool                    # constructive cross-check on in the sweep
    # rows re-checked by the constructive route, untimed, when the sweep skips it
    recheck_rows: int = 0

    def argvs(self, seed: int) -> list[list[str]]:
        """Argument lists of one sweep of this workload at ``seed``."""
        if seed == 0:
            return [list(a) for a in self.sweeps]
        lo, hi = self.shifted_range(seed)
        return [list(a) + ["--r-min", repr(lo), "--r-max", repr(hi)]
                for a in self.sweeps]

    def shifted_range(self, seed: int) -> tuple[float, float]:
        half_step = (self.r_max - self.r_min) / (self.steps - 1) / 2.0
        u = random.Random(seed).random()
        return self.r_min + u * half_step, self.r_max - (1.0 - u) * half_step

    @property
    def rows_per_sweep(self) -> int:
        return self.steps * len(self.sweeps)


# Oracle tolerance of each route at the default truncation: a row whose
# oracle_discrepancy exceeds it is wrong even if the sweep let it through.
ORACLE_TOL = {"dirac": 1e-10, "scalar": 1e-9, "hardcore": 1e-9}

WORKLOADS = {w.name: w for w in (
    Workload(name="dirac_fig3", field="dirac", sweeps=(("--preset", "fig3"),),
             r_min=0.0, r_max=math.pi / 4, steps=200, oracle=True),
    Workload(name="scalar_fig4", field="scalar", sweeps=(("--preset", "fig4"),),
             r_min=0.0, r_max=1.5, steps=150, oracle=True),
    # r = 1.65 is the last r at which the d_max = 400 block sum converges
    Workload(name="scalar_closed_edge", field="scalar",
             sweeps=(("--field", "scalar", "--no-oracle", "--r-max", "1.65",
                      "--steps", "150"),),
             r_min=0.0, r_max=1.65, steps=150, oracle=False, recheck_rows=4),
    Workload(name="hardcore_caps", field="hardcore",
             sweeps=tuple(("--field", "hardcore", "--r-max", "4", "--steps", "60",
                           "--cap", str(cap)) for cap in (2, 8, 16)),
             r_min=0.0, r_max=4.0, steps=60, oracle=True),
)}
