"""Parameter sweeps, CSV emission and conservation-law checking.

A sweep evaluates one correlation report per grid point and writes a CSV
with a fixed header. Evaluation is sequential and deterministic: the same
configuration always produces a byte-identical file. A point that fails to
converge becomes a NaN row rather than aborting the remaining points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dirac import dirac_report
from .errors import UnruhError
from .fock import FieldKind
from .report import CorrelationReport
from .scalar import HardcoreConfig, TruncationConfig, hardcore_report, scalar_report

CSV_FIELDS = CorrelationReport.field_names()
CSV_HEADER = ",".join(CSV_FIELDS)

CHECK_NAMES = ("i-conservation", "n-conservation", "n-arbar-zero")

# per-field tolerance of the mutual-information conservation law
_I_CONSERVATION_TOL = {FieldKind.DIRAC: 1e-10, FieldKind.SCALAR: 1e-8,
                       FieldKind.HARDCORE: 1e-8}
_N_CONSERVATION_TOL = 1e-10
_N_ARBAR_ZERO_TOL = 1e-12


def default_checks(field_kind: FieldKind) -> tuple[str, ...]:
    """Laws that hold for a field kind: the negativity tradeoff is exact only
    for Dirac; capped bosons obey neither conservation law exactly."""
    if field_kind is FieldKind.DIRAC:
        return ("i-conservation", "n-conservation")
    if field_kind is FieldKind.SCALAR:
        return ("i-conservation", "n-arbar-zero")
    return ("n-arbar-zero",)


@dataclass(frozen=True)
class SweepConfig:
    """Grid, truncation overrides and output selection for one sweep."""

    field_kind: FieldKind
    r_min: float = 0.0
    r_max: float = 1.5
    steps: int = 150
    cap: int | None = None
    hardcore_mode: str = "truncate_only"
    tail_tol: float = 1e-12
    d_max: int = 400
    out: str | None = None
    checks: tuple[str, ...] | None = None
    oracle: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise ValueError(f"r bounds must be finite, got [{self.r_min}, {self.r_max}]")
        if self.r_min < 0:
            raise ValueError(f"r_min must be >= 0, got {self.r_min}")
        if self.r_max <= self.r_min:
            raise ValueError(f"r_max must exceed r_min, got [{self.r_min}, {self.r_max}]")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if (self.field_kind is FieldKind.DIRAC
                and self.r_max > math.pi / 4 + 1e-12):
            raise ValueError(
                f"Dirac sweeps are bounded by r_max = pi/4, got {self.r_max}")
        if self.field_kind is FieldKind.HARDCORE and self.cap is None:
            raise ValueError("hardcore sweeps need an occupation cap")
        if self.checks is not None:
            for c in self.checks:
                if c not in CHECK_NAMES:
                    raise ValueError(
                        f"unknown check {c!r}; valid checks: {CHECK_NAMES}")
        if self.hardcore_mode not in HardcoreConfig.MODES:
            raise ValueError(
                f"hardcore_mode must be one of {HardcoreConfig.MODES}")
        # the per-point configs validate d_max, tail_tol and cap
        self.truncation()
        if self.field_kind is FieldKind.HARDCORE:
            self.hardcore()

    def grid(self) -> list[float]:
        step = (self.r_max - self.r_min) / (self.steps - 1)
        return [self.r_min + i * step for i in range(self.steps)]

    def truncation(self) -> TruncationConfig:
        return TruncationConfig(tail_tol=self.tail_tol, d_max=self.d_max)

    def hardcore(self) -> HardcoreConfig:
        return HardcoreConfig(cap=self.cap, mode=self.hardcore_mode)

    def enabled_checks(self) -> tuple[str, ...]:
        return self.checks if self.checks is not None else default_checks(self.field_kind)


@dataclass
class SweepResult:
    config: SweepConfig
    grid: list[float]
    reports: list[CorrelationReport | None]
    errors: list[tuple[int, float, str]] = field(default_factory=list)

    @property
    def ok_reports(self) -> list[CorrelationReport]:
        return [rep for rep in self.reports if rep is not None]


def _evaluate_point(cfg: SweepConfig, r: float) -> CorrelationReport:
    if cfg.field_kind is FieldKind.DIRAC:
        # the grid endpoint may overshoot pi/4 by float rounding
        return dirac_report(min(r, math.pi / 4), oracle=cfg.oracle)
    if cfg.field_kind is FieldKind.SCALAR:
        return scalar_report(r, cfg.truncation(), oracle=cfg.oracle)
    return hardcore_report(r, cfg.hardcore(), oracle=cfg.oracle)


def format_value(x: float) -> str:
    return f"{x:.12e}"


def format_row(r: float, rep: CorrelationReport | None) -> str:
    if rep is None:
        return ",".join([format_value(r)] + ["nan"] * (len(CSV_FIELDS) - 1))
    return ",".join(format_value(v) for v in rep.as_row())


def write_csv(result: SweepResult, path: str) -> None:
    lines = [CSV_HEADER]
    lines += [format_row(r, rep) for r, rep in zip(result.grid, result.reports)]
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def read_csv_rows(path: str) -> list[dict]:
    """Parse a sweep CSV back into one dict of floats per row."""
    with open(path, "r", newline="") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the sweep CSV header")
    return [dict(zip(CSV_FIELDS, map(float, ln.split(",")))) for ln in lines[1:]]


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the grid in order; convergence failures become NaN rows."""
    grid = cfg.grid()
    reports: list[CorrelationReport | None] = []
    errors: list[tuple[int, float, str]] = []
    for i, r in enumerate(grid):
        try:
            reports.append(_evaluate_point(cfg, r))
        except UnruhError as exc:
            reports.append(None)
            errors.append((i, r, str(exc)))
    result = SweepResult(config=cfg, grid=grid, reports=reports, errors=errors)
    if cfg.out is not None:
        write_csv(result, cfg.out)
    return result


@dataclass(frozen=True)
class ConservationSummary:
    lines: tuple[str, ...]
    passed: bool

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


def check_report(reports: list[CorrelationReport], field_kind: FieldKind,
                 checks: tuple[str, ...] | None = None) -> ConservationSummary:
    """Maximum deviation of each enabled law over a sweep, with PASS/FAIL."""
    if not reports:
        raise ValueError("check_report needs at least one report")
    enabled = checks if checks is not None else default_checks(field_kind)
    lines = []
    passed = True
    for name in enabled:
        if name == "i-conservation":
            dev = max(abs(rep.I_AR + rep.I_ARbar - 2.0) for rep in reports)
            tol = _I_CONSERVATION_TOL[field_kind]
            label = "I_conservation"
        elif name == "n-conservation":
            dev = max(abs(rep.N_AR + rep.N_ARbar - 0.5) for rep in reports)
            tol = _N_CONSERVATION_TOL
            label = "N_conservation"
        elif name == "n-arbar-zero":
            dev = max(rep.N_ARbar for rep in reports)
            tol = _N_ARBAR_ZERO_TOL
            label = "N_ARbar_zero"
        else:
            raise ValueError(f"unknown check {name!r}")
        ok = dev <= tol
        passed = passed and ok
        lines.append(f"{label} max_dev={dev:.3e} tol={tol:.0e} "
                     f"{'PASS' if ok else 'FAIL'}")
    return ConservationSummary(lines=tuple(lines), passed=passed)


PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


def figure_preset(name: str) -> SweepConfig:
    """Sweep configuration producing the named correlation-curve family.

    fig2/fig3: Dirac mutual informations / negativities over r in [0, pi/4].
    fig4: scalar mutual-information pair; fig5: scalar Alice-Rob negativity;
    fig6: scalar Rob-AntiRob negativity; fig7: Rob-AntiRob mutual
    information against logarithmic negativity. All columns are always
    emitted; the preset fixes field, range and resolution.
    """
    if name in ("fig2", "fig3"):
        return SweepConfig(field_kind=FieldKind.DIRAC, r_min=0.0,
                           r_max=math.pi / 4, steps=200)
    if name in ("fig4", "fig5", "fig6", "fig7"):
        return SweepConfig(field_kind=FieldKind.SCALAR, r_min=0.0, r_max=1.5,
                           steps=150)
    raise ValueError(f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}")
