"""Per-point record of every correlation measure emitted by a sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import OracleMismatchError
from .measures import log_negativity_from_negativity


@dataclass(frozen=True)
class CorrelationReport:
    """All bipartite measures at one value of the acceleration parameter.

    Mutual informations are in bits. ``oracle_discrepancy`` is the largest
    difference between the closed-form and constructive routes (for the
    scalar and hardcore N_RRbar, a proven upper bound on it), or NaN when
    the constructive cross-check was skipped. ``trace_deficit`` is the
    probability mass lost to Fock truncation (0 for Dirac).
    """

    r: float
    I_AR: float
    I_ARbar: float
    I_RRbar: float
    N_AR: float
    N_ARbar: float
    N_RRbar: float
    logN_RRbar: float
    trace_deficit: float
    oracle_discrepancy: float

    _MEASURES = ("I_AR", "I_ARbar", "I_RRbar", "N_AR", "N_ARbar", "N_RRbar",
                 "logN_RRbar")

    def __post_init__(self):
        for name in self._MEASURES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if v < 0.0:
                if v > -1e-12:
                    object.__setattr__(self, name, 0.0)
                else:
                    raise ValueError(f"{name} must be >= 0, got {v}")
        if not math.isfinite(self.trace_deficit) or self.trace_deficit < 0.0:
            raise ValueError(f"trace_deficit must be >= 0, got {self.trace_deficit}")

    @classmethod
    def from_routes(cls, r: float, closed: dict, constructive: dict | None,
                    deficit: float, tol: float, bound: float = 0.0) -> "CorrelationReport":
        """Report the ``closed`` measures, checked against ``constructive``.

        ``constructive`` (None when the check is skipped) may omit a measure
        that it checks through ``bound`` instead, a proven upper bound on
        that measure's difference (scalar and hardcore N_RRbar). A
        discrepancy above ``tol`` raises ``OracleMismatchError``.
        """
        discrepancy = float("nan")
        if constructive is not None:
            discrepancy = max(max(abs(closed[k] - v) for k, v in constructive.items()),
                              bound)
            if discrepancy > tol:
                raise OracleMismatchError(
                    f"closed-form vs constructive mismatch {discrepancy:.3e} at r={r}",
                    discrepancy=discrepancy)
        return cls(r=r, **closed,
                   logN_RRbar=log_negativity_from_negativity(closed["N_RRbar"]),
                   trace_deficit=deficit, oracle_discrepancy=discrepancy)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def as_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))
