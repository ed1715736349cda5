"""Scalar field seen from a uniformly accelerated frame.

The accelerated-frame vacuum is a two-mode squeezed state over the Rob and
AntiRob wedges, so every matrix lives on a truncated Fock space. Truncation
is adaptive: the cutoff grows until the dropped tail mass of both the
vacuum and the one-particle state is below ``tail_tol``, and the loss is
carried around explicitly as ``trace_deficit`` rather than renormalized
away, so closed-form coefficients can be compared entry for entry.

Hardcore bosons reuse the same machinery with the cutoff pinned to the
occupation cap instead of adapted. Their closed measures and the closed
matrices of both fields come from the truncated weights of the state's two
diagonals (:func:`_closed_weights`), so no report reduces a dense matrix.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NotAStateError, TruncationError
from .fock import (Bipartition, DensityMatrix, FieldKind, LabeledBasis,
                   SqueezingParam, StateVector, Subsystem, _r_value)
from .linalg import _failure, _solve_blocks
from .measures import (NEGATIVITY_ZERO_TOL, PSD_TOL, entropy_from_eigenvalues,
                       mutual_informations, negativity_from_pt_eigenvalues)
from .report import CorrelationReport

ORACLE_TOL = 1e-9
_SERIES_FLOOR = 1e-22
_SERIES_CAP = 1_000_000
# band entries of the closed Rob-AntiRob blocks solved per LAPACK pass (all of
# blocks 1..400, the default d_max) and built per numpy pass: memory bounds
_BAND_BUDGET, _PIECE = 400 * 401 // 2, 2048
# bound on adaptive cutoff growth
N_MAX_CAP = 4096
# largest order of a dense Rob-AntiRob matrix, (n_max + 2)(n_max + 1): 128 MB;
# a state holds at most DENSE_ORDER_MAX^2 amplitudes, the same 128 MB
DENSE_ORDER_MAX = 4096
# about half an ulp of 1 (5.55e-17): a capped one-particle component keeping
# less of its mass has a deficit of 1 to double precision
ONE_PARTICLE_MASS_FLOOR = 5e-17


@dataclass(frozen=True)
class TruncationConfig:
    """Fock truncation and block-sum controls.

    ``n_max`` is the cutoff of the squeezed-mode sums (Rob occupations then
    reach n_max + 1 through the one-particle component); ``None`` adapts it
    to ``tail_tol``. ``d_max`` caps the Rob-AntiRob block-sum negativity.
    Adaptive growth stops at ``N_MAX_CAP``.
    """

    n_max: int | None = None
    tail_tol: float = 1e-12
    d_max: int = 400

    def __post_init__(self):
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not (math.isfinite(self.tail_tol) and self.tail_tol > 0):
            raise ValueError(f"tail_tol must be finite and positive, got {self.tail_tol}")
        if self.d_max < 2:
            raise ValueError(f"d_max must be >= 2, got {self.d_max}")


@dataclass(frozen=True)
class HardcoreConfig:
    """Bosonic mode with the squeezed-sum occupation capped at ``cap``.

    ``truncate_only`` keeps the raw truncated coefficients (trace < 1, the
    loss recorded as trace_deficit); ``renormalized`` rescales the pure state
    to unit norm first. Block positivity, hence the vanishing Alice-AntiRob
    negativity, is invariant under that rescaling. Reports take five
    measures from the capped closed weights and sum the Rob-AntiRob
    negativity over blocks of order at most 2 cap + 2; only the public dense
    ``hardcore_rho(..., ROB_ANTIROB)`` has order (cap + 2)(cap + 1), which
    must stay within ``DENSE_ORDER_MAX``, so the cap is at most 62.
    """

    cap: int
    mode: str = "truncate_only"

    MODES = ("truncate_only", "renormalized")

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if (self.cap + 2) * (self.cap + 1) > DENSE_ORDER_MAX:
            raise ValueError(
                f"cap must be <= 62, got {self.cap}: the dense Rob-AntiRob matrix "
                f"would have order {(self.cap + 2) * (self.cap + 1)} > {DENSE_ORDER_MAX}")
        if self.mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {self.mode!r}")


class SubsystemEntropies(NamedTuple):
    S_R: float
    S_Rbar: float
    S_A: float


def rapidity_scalar(q: float) -> SqueezingParam:
    """Squeezing parameter r = artanh(q) for q = exp(-pi k0 c / a) in [0, 1).

    q -> 1 (infinite acceleration) sends r to infinity, hence the open
    interval.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1) (r diverges at 1), got {q}")
    return SqueezingParam(FieldKind.SCALAR, math.atanh(q))


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def vacuum_tail(x: float, n_max: int) -> float:
    """Mass of the squeezed vacuum beyond occupation n_max; x = tanh^2 r."""
    return x ** (n_max + 1)


def one_particle_tail(x: float, n_max: int) -> float:
    """Mass of the one-particle state beyond summation index n_max, with
    1 - x = sech^2 r (exact for x >= 1/2) in place of (n+2) - (n+1)x."""
    return x ** (n_max + 1) * (1.0 + (n_max + 1) * (1.0 - x))


def resolve_n_max(r, cfg: TruncationConfig) -> int:
    """Cutoff honouring both state tails, grown adaptively unless pinned."""
    if cfg.n_max is not None:
        return cfg.n_max
    rv = _r_value(r, FieldKind.SCALAR)
    x = math.tanh(rv) ** 2
    n = 1
    while max(vacuum_tail(x, n), one_particle_tail(x, n)) > cfg.tail_tol:
        n += 1
        if n > N_MAX_CAP:
            raise TruncationError(
                f"n_max adaptation exceeded the hard cap {N_MAX_CAP} at r={rv}; "
                f"loosen tail_tol or set n_max explicitly")
    return n


def truncation_deficits(r, n_max: int) -> tuple[float, float]:
    """(vacuum, one-particle) tail masses at a given cutoff."""
    x = math.tanh(_r_value(r, FieldKind.SCALAR)) ** 2
    return vacuum_tail(x, n_max), one_particle_tail(x, n_max)


def _require_one_particle_mass(rv: float, cap: int) -> None:
    """Raise ``TruncationError`` where the one-particle component capped at
    squeezed-sum index ``cap`` keeps less than ``ONE_PARTICLE_MASS_FLOOR``
    of its mass (from r = 10.4 at cap 1 to 11.4 at cap 16). The mass is
    summed from its positive terms sech^4 r (n+1) tanh^2n r, so it falls
    monotonically with r, unlike 1 - one_particle_tail. Every state and
    closed-matrix builder applies this rule before it reads cosh r, which
    overflows past r ~ 710."""
    e = math.exp(-rv)
    sech4 = (2 * e / (1 + e * e)) ** 4
    if sech4 >= ONE_PARTICLE_MASS_FLOOR:
        return  # the n = 0 term alone keeps enough
    n = np.arange(cap + 1)
    kept = float(np.sum(sech4 * (n + 1) * math.tanh(rv) ** (2 * n)))
    if kept < ONE_PARTICLE_MASS_FLOOR:
        raise TruncationError(
            f"cap {cap} keeps a one-particle mass of {kept:.3e} at r={rv}, "
            f"below {ONE_PARTICLE_MASS_FLOOR:.0e}")


# ---------------------------------------------------------------------------
# state builders
# ---------------------------------------------------------------------------

def _bases(n_max: int) -> tuple[LabeledBasis, LabeledBasis]:
    # Rob reaches n_max + 1 through the one-particle component
    return (LabeledBasis.fock(Subsystem.ROB, n_max + 1),
            LabeledBasis.fock(Subsystem.ANTIROB, n_max))


def _component_amplitudes(rv: float, n_max: int) -> np.ndarray:
    """Flat Rob x AntiRob amplitudes: vacuum in row 0, one particle in row 1.

    Raises ``TruncationError`` before it allocates anything if they would
    number more than DENSE_ORDER_MAX^2, or past the one-particle mass rule
    (:func:`_require_one_particle_mass`).
    """
    rob, antirob = _bases(n_max)
    size = 2 * rob.dim * antirob.dim
    if size > DENSE_ORDER_MAX ** 2:
        raise TruncationError(f"the state at r={rv} with cutoff {n_max} would hold "
                              f"{size} amplitudes > {DENSE_ORDER_MAX ** 2}")
    _require_one_particle_mass(rv, n_max)
    t, ch = math.tanh(rv), math.cosh(rv)
    amps = np.zeros((2, rob.dim, antirob.dim))
    n = np.arange(n_max + 1)
    amps[0, n, n] = t ** n / ch
    amps[1, n + 1, n] = t ** n * np.sqrt(n + 1) / ch ** 2
    return amps.reshape(2, -1)


def scalar_vacuum(r, cfg: TruncationConfig = TruncationConfig()) -> StateVector:
    """Accelerated-frame vacuum: amplitude tanh^n r / cosh r on (n, n)."""
    rv = _r_value(r, FieldKind.SCALAR)
    n_max = resolve_n_max(rv, cfg)
    return StateVector(_bases(n_max), _component_amplitudes(rv, n_max)[0],
                       trace_deficit=truncation_deficits(rv, n_max)[0])


def scalar_one_particle(r, cfg: TruncationConfig = TruncationConfig()) -> StateVector:
    """Minkowski one-particle state: tanh^n r sqrt(n+1)/cosh^2 r on (n+1, n)."""
    rv = _r_value(r, FieldKind.SCALAR)
    n_max = resolve_n_max(rv, cfg)
    return StateVector(_bases(n_max), _component_amplitudes(rv, n_max)[1],
                       trace_deficit=truncation_deficits(rv, n_max)[1])


def scalar_tripartite_state(r, cfg: TruncationConfig = TruncationConfig(),
                            renormalized: bool = False) -> StateVector:
    """(|0>_A |vacuum> + |1>_A |one particle>)/sqrt(2) over Alice x Rob x AntiRob.

    Only this state's deficit is declared, not each component's, which
    rounds to 1 for a capped one-particle component at large r.
    """
    rv = _r_value(r, FieldKind.SCALAR)
    n_max = resolve_n_max(rv, cfg)
    amps = _component_amplitudes(rv, n_max)
    amps /= math.sqrt(2.0)
    deficit = sum(truncation_deficits(rv, n_max)) / 2.0
    if renormalized:
        # the kept mass summed from its own terms: 1 - deficit cancels
        # badly once the deficit nears 1
        amps /= math.sqrt(float(np.sum(amps * amps)))
        deficit = 0.0
    return StateVector((LabeledBasis.fock(Subsystem.ALICE, 1),) + _bases(n_max),
                       amps.ravel(), trace_deficit=deficit)


# ---------------------------------------------------------------------------
# closed-form density matrices
# ---------------------------------------------------------------------------

def _closed_weights(rv: float, n_max: int) -> np.ndarray:
    """Rows p0[n] = tanh^2n r sech^2 r / 2 on (alice 0, rob n, antirob n)
    and p1[n] = (n+1) tanh^2n r sech^4 r / 2 on (alice 1, rob n+1,
    antirob n), n <= n_max, zero-padded to n_max + 3 as the oracle reads
    them; sech r = 2 e^-r / (1 + e^-2r) neither cancels nor overflows.
    ``TruncationError`` past the one-particle mass rule."""
    _require_one_particle_mass(rv, n_max)
    e = math.exp(-rv)
    sech2 = (2 * e / (1 + e * e)) ** 2
    n = np.arange(n_max + 1)
    p = np.zeros((2, n_max + 3))
    p[0, n] = math.tanh(rv) ** (2 * n) * sech2 / 2
    p[1, n] = (n + 1) * p[0, n] * sech2
    return p


def _closed_entries(rv: float, n_max: int,
                    bipartition: Bipartition) -> tuple[tuple, np.ndarray]:
    """(basis, entries) of the truncated closed-form bipartite matrix, from
    :func:`_closed_weights`; ``TruncationError`` past the mass rule."""
    p0, p1 = _closed_weights(rv, n_max)[:, :n_max + 1]
    alice = LabeledBasis.fock(Subsystem.ALICE, 1)
    rob, antirob = _bases(n_max)
    n = np.arange(n_max + 1)
    if bipartition is Bipartition.ROB_ANTIROB:
        d_r, d_b = rob.dim, antirob.dim
        if d_r * d_b > DENSE_ORDER_MAX:
            raise TruncationError(
                f"the Rob-AntiRob matrix at cutoff {n_max} (r={rv}) has order "
                f"{d_r * d_b} > {DENSE_ORDER_MAX}")
        m = np.zeros((d_r * d_b, d_r * d_b))
        for i, p in ((n * d_b + n, p0), ((n + 1) * d_b + n, p1)):
            m[np.ix_(i, i)] = np.sqrt(np.outer(p, p))
        return (rob, antirob), m
    if bipartition is Bipartition.ALICE_ROB:
        basis, s = (alice, rob), 1  # alice 1 holds rob n + s
    elif bipartition is Bipartition.ALICE_ANTIROB:
        basis, s = (alice, antirob), 0  # alice 1 holds antirob n + s
    else:
        raise ValueError(f"unknown bipartition {bipartition}")
    d = basis[1].dim
    m = np.zeros((2 * d, 2 * d))
    m[n, n] = p0
    m[d + n + s, d + n + s] = p1
    # |1, k + s> and |0, k + 1 - s> share the traced occupation; k <= n_max - 1 + s
    k = n[:n_max + s]
    m[k + 1 - s, d + k + s] = m[d + k + s, k + 1 - s] = np.sqrt(p0[k + 1 - s] * p1[k])
    return basis, m


def _closed_rho(rv: float, n_max: int, bipartition: Bipartition) -> DensityMatrix:
    dv, do = truncation_deficits(rv, n_max)
    return DensityMatrix(*_closed_entries(rv, n_max, bipartition),
                         trace_deficit=(dv + do) / 2.0)


def scalar_closed_rho(r, cfg: TruncationConfig, bipartition: Bipartition) -> DensityMatrix:
    """Closed-form bipartite density matrix, truncated, deficit recorded."""
    rv = _r_value(r, FieldKind.SCALAR)
    return _closed_rho(rv, resolve_n_max(rv, cfg), bipartition)


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def rob_weight(n: int, x: float) -> float:
    """n-th eigenvalue of Rob's reduced state; x = tanh^2 r."""
    if n == 0:
        return (1.0 - x) / 2.0
    return x ** (n - 1) * (1.0 - x) * (x + n * (1.0 - x)) / 2.0


def antirob_weight(n: int, x: float) -> float:
    """n-th eigenvalue of AntiRob's reduced state; x = tanh^2 r."""
    return x ** n * (1.0 - x) * (1.0 + (n + 1) * (1.0 - x)) / 2.0


def _series_entropy(weight, x: float) -> float:
    total = 0.0
    for n in range(_SERIES_CAP + 1):
        w = weight(n, x)
        if w > 0.0:
            total -= w * math.log2(w)
        if n >= 8 and w < _SERIES_FLOOR:
            return total
    raise ConvergenceError(f"entropy series did not converge within {_SERIES_CAP} "
                           f"terms (x={x})", partial_value=total)


def scalar_entropies(r, cfg: TruncationConfig = TruncationConfig()) -> SubsystemEntropies:
    """Series-summed single-party entropies, in bits.

    The tripartite state is pure, so these fix the joint entropies too:
    S_AR = S_Rbar, S_ARbar = S_R and S_RRbar = S_A = 1.
    """
    x = math.tanh(_r_value(r, FieldKind.SCALAR)) ** 2
    return SubsystemEntropies(S_R=_series_entropy(rob_weight, x),
                              S_Rbar=_series_entropy(antirob_weight, x), S_A=1.0)


# ---------------------------------------------------------------------------
# negativities
# ---------------------------------------------------------------------------

def _cosh(rv: float, power: int = 1) -> float:
    """cosh^power r; ``TruncationError`` naming r where it overflows (cosh r
    from r = 710.48, cosh^4 r from r = 178.14)."""
    try:
        return math.cosh(rv) ** power
    except OverflowError:
        raise TruncationError(f"cosh^{power} r overflows double precision "
                              f"at r={rv}") from None


def _smaller_eigenvalues(p, q, b):
    """Smaller eigenvalue of each symmetric 2x2 block [[p, b], [b, q]]."""
    return (p + q) / 2 - np.hypot((p - q) / 2, b)


def scalar_negativity_AR(r, cfg: TruncationConfig = TruncationConfig()) -> float:
    """Alice-Rob negativity as a series over partial-transpose blocks.

    Each 2x2 block of the partial transpose contributes one non-positive
    eigenvalue; terms are summed until both the term and its geometric tail
    bound drop below tail_tol. Starts at 1/2 - r^2 + O(r^4), 1/2 to double
    precision below r = 1e-9 (where the series overflows, from r ~ 1e-77),
    and decays to zero with acceleration. Raises ``TruncationError`` from
    r ~ 19.06, where tanh^2 r rounds to 1 and the tail has no bound.
    """
    rv = _r_value(r, FieldKind.SCALAR)
    if rv < 1e-9:
        return 0.5
    t = math.tanh(rv)
    x = t * t
    if x == 1.0:
        raise TruncationError(f"tanh^2 r rounds to 1 at r={rv}: the Alice-Rob "
                              f"negativity series has no tail bound")
    ch, sh = math.cosh(rv), math.sinh(rv)
    total = 0.0
    for n in range(_SERIES_CAP + 1):
        b = n / sh ** 2 + x
        term = x ** n / (4 * ch ** 2) * abs(b - math.sqrt(b * b + 4 / ch ** 2))
        total += term
        tail_bound = term * x / (1.0 - x)
        if n >= 4 and term < cfg.tail_tol and tail_bound < cfg.tail_tol:
            return total
    raise ConvergenceError("negativity series did not converge", partial_value=total)


def scalar_negativity_ARbar(r, cfg: TruncationConfig = TruncationConfig()) -> float:
    """Alice-AntiRob negativity: identically zero for every acceleration.

    Asserts the claim rather than assuming it. Apart from two non-negative
    diagonal entries, the partial transpose is a sum of 2x2 blocks pairing
    |0, n> with |1, n+1>, tanh^2n r / (2 cosh^2 r) [[1, b], [b, c]] with
    b = sqrt(n+1) tanh r / cosh r and c = (n+2) tanh^2 r / cosh^2 r. A
    closed-form smaller eigenvalue below -1e-10 is a bug and raises.
    """
    rv = _r_value(r, FieldKind.SCALAR)
    n = np.arange(resolve_n_max(rv, cfg))
    t, ch, ch2 = math.tanh(rv), _cosh(rv), _cosh(rv, 2)
    b = np.sqrt(n + 1) * t / ch
    c = (n + 2) * t * t / ch2
    low = t ** (2 * n) / (2 * ch2) * _smaller_eigenvalues(1.0, c, b)
    if float(low.min()) < -PSD_TOL:
        raise NotAStateError(
            f"Alice-AntiRob partial-transpose block {int(low.argmin())} has "
            f"eigenvalue {low.min():.3e} < -{PSD_TOL:.0e}")
    return 0.0


def rrbar_block_labels(D: int) -> tuple[np.ndarray, np.ndarray]:
    """(rob, antirob) occupations of the block with rob + antirob = D - 1,
    interleaved from the outside in so the block is tridiagonal: the pair
    (n, m) sits at position 2n if n <= m, else 2m + 1."""
    j = np.arange(D)
    n = np.where(j % 2 == 0, j // 2, D - 1 - j // 2)
    return n, D - 1 - n


def rrbar_block_basis(D: int) -> list[tuple[int, int]]:
    """Occupation pairs of :func:`rrbar_block_labels` as a list."""
    n, m = rrbar_block_labels(D)
    return list(zip(n.tolist(), m.tolist()))


def rrbar_block_diagonals(r, D: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the D-dimensional Rob-AntiRob PT block.

    The diagonal vanishes except for its last entry; couplings alternate
    between tanh^(D-1)/(2 cosh^2) (odd positions) and
    sqrt((D-l) l) tanh^(D-2)/(2 cosh^4) (even positions 2l).
    ``TruncationError`` from r = 178.14, where cosh^4 r overflows.
    """
    if D < 1:
        raise ValueError(f"block dimension must be >= 1, got {D}")
    a = _closed_bands(_r_value(r, FieldKind.SCALAR), range(D, D + 1))[0]
    diag = np.zeros(D)
    diag[-1] = a[-1]  # a block's last coupling is its only diagonal one
    return diag, a[:-1]


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric tridiagonal matrix from its two bands."""
    m = np.diag(diag)
    m.flat[1::diag.size + 1] = m.flat[diag.size::diag.size + 1] = off
    return m


def rrbar_block(r, D: int) -> np.ndarray:
    """Dense D x D Rob-AntiRob partial-transpose block."""
    return _tridiagonal(*rrbar_block_diagonals(r, D))


def rrbar_block_constructive(psi: StateVector, D: int) -> np.ndarray:
    """Restriction of the constructive Rob-AntiRob partial transpose to the
    block with rob + antirob = D - 1, in the interleaved basis ordering.

    Labels beyond the truncated axes contribute zero rows/columns, matching
    the truncated state viewed as a vector in the untruncated space.
    """
    tensor = _alice_rob_antirob_tensor(psi)
    d_r, d_b = tensor.shape[1], tensor.shape[2]
    n_idx, m_idx = rrbar_block_labels(D)
    ok_n = n_idx < d_r
    ok_m = m_idx < d_b
    block = np.zeros((D, D))
    for a in range(tensor.shape[0]):
        g = tensor[a][np.clip(n_idx, 0, d_r - 1)[:, None],
                      np.clip(m_idx, 0, d_b - 1)[None, :]]
        g[~ok_n, :] = 0.0
        g[:, ~ok_m] = 0.0
        block += g * g.T
    return block


def _alice_rob_antirob_tensor(psi: StateVector) -> np.ndarray:
    if psi.subsystems != (Subsystem.ALICE, Subsystem.ROB, Subsystem.ANTIROB):
        raise ValueError("expected an Alice x Rob x AntiRob state")
    return psi.tensor()


def scalar_diagonals(psi: StateVector, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(v0, v1) with v0[m] = psi[0, m, m] and v1[m] = psi[1, m+1, m], of
    length ``size`` (zero past the state's axes), where the scalar and
    hardcore states hold all their amplitudes. One support check per Alice
    row raises ``NotAStateError`` on any amplitude elsewhere.
    """
    tensor = _alice_rob_antirob_tensor(psi)
    v = np.zeros((2, size))
    for a, row in enumerate(tensor):
        on = np.diagonal(row, -a) if a < 2 else np.zeros(0)
        if np.count_nonzero(row) != np.count_nonzero(on):
            n, m = np.nonzero(row)
            k = np.flatnonzero((n - m != a) | (a >= 2))[0]
            raise NotAStateError(
                f"amplitude on alice {a}, rob {n[k]}, antirob {m[k]} lies off "
                f"offsets 0 and 1 (alice 0 on rob = antirob, alice 1 on "
                f"rob = antirob + 1): not a scalar-form state")
        if a < 2:
            v[a, :min(size, on.size)] = on[:size]
    return v[0], v[1]


def _positions(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, D, ell) of blocks of ``sizes`` laid end to end: where each
    starts, and the block size and index in it of each position."""
    starts = sizes.cumsum() - sizes
    return starts, sizes.repeat(sizes), np.arange(sizes.sum()) - starts.repeat(sizes)


def _closed_bands(rv: float, sizes: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(couplings, D, ell) of every block D in ``sizes`` laid end to end
    (:func:`_positions`; their bands are :func:`rrbar_block_diagonals`),
    from one numpy pass, the one place the couplings are formed."""
    t, ch2, ch4 = math.tanh(rv), _cosh(rv, 2), _cosh(rv, 4)
    size = np.array(sizes)
    _, block, ell = _positions(size)
    a = np.repeat([t ** (D - 1) / (2 * ch2) for D in sizes], size)
    odd = ell % 2 == 1  # position 2l - 1, l = 1..D // 2
    l = (ell[odd] + 1) // 2
    power = np.repeat([t ** (D - 2) if D >= 2 else 0.0 for D in sizes], size)
    a[odd] = np.sqrt((block[odd] - l) * l) * power[odd] / (2 * ch4)
    return a, block, ell


def _diagonal_couplings(v0: np.ndarray, v1: np.ndarray, run: range) -> tuple:
    """(couplings, starts, sizes) of the Rob-AntiRob partial-transpose
    blocks D in ``run`` of a state with diagonals ``v0``, ``v1``
    (:func:`scalar_diagonals`), laid end to end (:func:`_positions`) and
    equal bitwise to the band of :func:`rrbar_block_constructive`.

    Entry (i, j) of block D is sum_a psi[a, n_i, m_j] psi[a, n_j, m_i].
    With n_i + m_i = n_j + m_j = D - 1 both labels lie on one offset n - m,
    and on offsets 0 and 1, where the scalar state lives, every such pair
    falls on the band. So position 2i of block D holds v0[i] v0[D-1-i] and
    position 2j+1 holds v1[j] v1[D-2-j]; a block's last position is its
    diagonal entry, every other one an off-diagonal entry.
    """
    size = np.array(run)
    starts, block, ell = _positions(size)
    i = ell // 2
    a = np.where(ell % 2 == 0, v0[i] * v0[block - 1 - i],
                 v1[i] * v1[np.maximum(block - 2 - i, 0)])
    a += 0.0  # the dense block sums from zero, so a -0.0 product reads +0.0
    return a, starts, size


def _rrbar_row_bound(t: float, ch2: float, D: int) -> float:
    """G_D >= the spectral radius of Rob-AntiRob block D >= 2: a row holds
    at most one coupling of each kind, tanh^(D-1) r/(2 cosh^2 r) and
    sqrt((D-l) l) tanh^(D-2) r/(2 cosh^4 r) <= (D/2) tanh^(D-2) r/(2 cosh^4 r).
    G falls strictly with D for every tanh r < 1."""
    return t ** (D - 2) * (t + D / (2 * ch2)) / (2 * ch2)


def _runs(first: int, last: int, entries: int):
    """Consecutive ranges of blocks first..last, each of at most ``entries``
    band entries (block D has D) or of one block."""
    while first <= last:
        # the largest s with first + ... + s <= entries: s (s + 1) <= n
        n = 2 * entries + first * (first - 1)
        stop = 1 + min(last, max(first, (math.isqrt(4 * n + 1) - 1) // 2))
        yield range(first, stop)
        first = stop


def _block_sum(rv: float, pieces, total: float = 0.0, blocks: list | None = None) -> float:
    """``total`` plus the negativity of the blocks of ``pieces``, each a
    ``(run, couplings)`` of the consecutive blocks D in ``run`` laid end to
    end (:func:`_positions`), in block order and bitwise as one
    :func:`negativity_from_pt_eigenvalues` per block. One
    :func:`_solve_blocks` pass solves every block in place, by address, in
    its piece's flat bands: a new diagonal, which becomes the spectra, and
    the couplings as scratch, copied only if ``blocks`` records them.
    Pieces of a few thousand entries keep every array small enough for the
    heap to reuse. One ``np.add.reduceat`` per piece counts the eigenvalues
    below -``NEGATIVITY_ZERO_TOL``, the first of each ascending spectrum,
    and only blocks with some are summed, from a reversed view. A failed
    block raises ``ConvergenceError`` naming r, with the sum before it.
    Otherwise, if ``blocks`` is a list, every piece is appended to it as
    ``(run, couplings, spectra)``: block D's ascending spectrum fills its
    positions of ``spectra``.
    """
    work, solve = [], []
    for run, a in pieces:
        sizes = np.array(run)
        starts = sizes.cumsum() - sizes
        last = starts + sizes - 1
        eigs = np.zeros(a.size)
        eigs[last] = a[last]
        scratch = a if blocks is None else a.copy()
        spans = list(zip(starts.tolist(), sizes.tolist()))
        d, e, width = eigs.ctypes.data, scratch.ctypes.data, eigs.itemsize
        solve += [(D, d + width * s, e + width * s) for s, D in spans]
        work.append((run, a, eigs, scratch, starts, spans))  # alive while solved
    solved, info = _solve_blocks(solve)
    left = solved
    for run, a, eigs, _, starts, spans in work:
        spans = spans[:left]
        left -= len(spans)
        negative = np.add.reduceat(eigs < -NEGATIVITY_ZERO_TOL, starts, dtype=np.intp)
        for (s, _), count in zip(spans, negative.tolist()):
            if count:
                total += float(-np.add.reduce(eigs[s:s + count][::-1]))
    if info != 0:
        failure = _failure(solve[solved][0], info)
        raise ConvergenceError(f"Rob-AntiRob block sum at r={rv}: {failure}",
                               partial_value=total) from failure
    if blocks is not None:
        blocks.extend((run, a, eigs) for run, a, eigs, *_ in work)
    return total


def scalar_negativity_RRbar(r, cfg: TruncationConfig = TruncationConfig(),
                            blocks: list | None = None) -> float:
    """Rob-AntiRob negativity: direct sum of the tridiagonal PT blocks,
    strictly increasing with acceleration and unbounded.

    The sum runs to block K, the last whose bound G_D reaches
    ``NEGATIVITY_ZERO_TOL`` (to a 1e-6 margin), found by bisection; later
    blocks add 0.0 and are never built. :func:`_block_sum` solves each
    ``_BAND_BUDGET`` band entries in one pass, built ``_PIECE`` at a time.
    ``ConvergenceError`` names r and carries the sum before a failed block,
    or of blocks 1..d_max if K > d_max. ``TruncationError`` names r where
    tanh r rounds to 1, or where K = 1 (from r ~ 14.2), for there the
    thresholded sum reads 0. If ``blocks`` is a list, every piece summed
    is appended to it as ``(run, couplings, spectra)``, blocks 1..K in
    order (:func:`_block_sum`); only then are the couplings copied.
    """
    rv = _r_value(r, FieldKind.SCALAR)
    if rv == 0.0:
        return 0.0
    t, ch2 = math.tanh(rv), _cosh(rv, 2)
    if t == 1.0:
        raise TruncationError(f"tanh r rounds to 1 at r={rv}: the Rob-AntiRob "
                              f"block bound has no falling tail")
    last = 1 + bisect.bisect_left(range(2, cfg.d_max + 2), True, key=lambda D: (
        _rrbar_row_bound(t, ch2, D) * (1.0 + 1e-6) < NEGATIVITY_ZERO_TOL))
    if last == 1:  # block 1 is one non-negative entry
        raise TruncationError(f"every Rob-AntiRob block past the first lies below "
                              f"{NEGATIVITY_ZERO_TOL:.0e} at r={rv}: the sum has no value")
    total = 0.0
    for run in _runs(1, min(last, cfg.d_max), _BAND_BUDGET):
        pieces = [(piece, _closed_bands(rv, piece)[0])
                  for piece in _runs(run.start, run.stop - 1, _PIECE)]
        total = _block_sum(rv, pieces, total, blocks)
    if last > cfg.d_max:
        raise ConvergenceError(
            f"Rob-AntiRob block sum did not converge within d_max={cfg.d_max} blocks",
            partial_value=total)
    return total


def rrbar_mirsky_bound(psi: StateVector, blocks) -> float:
    """Upper bound on |closed block sum - the same sum over the blocks of psi|.

    ``blocks`` is the record of the closed blocks a sum used, pieces of
    ``(run, couplings, spectra)`` from block 1 on, as
    :func:`scalar_negativity_RRbar` or :func:`hardcore_negativity_RRbar`
    append them; each piece is compared with the couplings of the same
    blocks read off the two diagonals of ``psi``
    (:func:`_diagonal_couplings`), with no constructive block built or
    eigensolved. For blocks B and B' with eigenvalues sorted alike,
    Mirsky's inequality gives
    sum |l_i(B) - l_i(B')| <= ||B - B'||_1 <= sum |d diag| + 2 sum |d off|
    (each off-diagonal pair is a rank-2 piece of trace norm 2 |d off|).
    Negativity drops eigenvalues in [-tol, 0), tol = NEGATIVITY_ZERO_TOL, so
    a closed eigenvalue within the band distance of -tol adds tol. The
    pieces are read as recorded, and no block after the last one.
    ``NotAStateError`` on any amplitude of ``psi`` off the diagonals that
    make every block tridiagonal, blocks or none.
    """
    return _mirsky_bound(*scalar_diagonals(psi, _last_block(blocks)), blocks)


def _last_block(blocks) -> int:
    """The last block of a record of pieces from block 1 on."""
    return blocks[-1][0].stop - 1 if blocks else 0


def _mirsky_bound(v0: np.ndarray, v1: np.ndarray, blocks) -> float:
    """:func:`rrbar_mirsky_bound` from diagonals of at least the last block."""
    dist, straddling = np.empty(_last_block(blocks)), 0
    for run, closed, eigs in blocks:
        a, starts, size = _diagonal_couplings(v0, v1, run)
        last = starts + size - 1
        gap = 2.0 * np.abs(closed - a)  # an off-diagonal entry counts twice,
        gap[last] *= 0.5  # a block's diagonal entry once
        d = dist[run.start - 1:run.stop - 1] = np.add.reduceat(gap, starts)
        straddling += np.count_nonzero(np.abs(eigs + NEGATIVITY_ZERO_TOL)
                                       <= np.repeat(d, size))
    return float(dist.sum() + NEGATIVITY_ZERO_TOL * straddling)


# ---------------------------------------------------------------------------
# hardcore bosons
# ---------------------------------------------------------------------------

def hardcore_tripartite_state(r, hc: HardcoreConfig) -> StateVector:
    """Capped-occupation tripartite state; cutoff pinned at the cap.
    ``TruncationError`` past the one-particle mass rule."""
    cfg = TruncationConfig(n_max=hc.cap)
    return scalar_tripartite_state(r, cfg, renormalized=hc.mode == "renormalized")


def hardcore_rho(r, hc: HardcoreConfig, bipartition: Bipartition) -> DensityMatrix:
    """Closed-form bipartite matrix of the capped mode.

    ``truncate_only`` keeps the squeezed-state coefficients verbatim;
    ``renormalized`` rescales by the kept mass so the trace is one. The kept
    mass is the trace of the unscaled matrix, a sum of positive terms, not
    1 - deficit, which cancels badly once the deficit nears 1.
    ``TruncationError`` past the one-particle mass rule.
    """
    rv = _r_value(r, FieldKind.SCALAR)
    if hc.mode == "renormalized":
        basis, m = _closed_entries(rv, hc.cap, bipartition)
        return DensityMatrix(basis, m / np.trace(m))
    return _closed_rho(rv, hc.cap, bipartition)


def hardcore_closed_measures(r, hc: HardcoreConfig) -> dict:
    """Every measure but N_RRbar of the capped mode, from its closed weights,
    divided by their sum in ``renormalized`` mode; nothing is eigensolved.
    ``TruncationError`` past the one-particle mass rule."""
    p = _closed_weights(_r_value(r, FieldKind.HARDCORE), hc.cap)
    if hc.mode == "renormalized":
        p /= p.sum()
    return _weight_measures(*p)


def hardcore_negativity_RRbar(r, hc: HardcoreConfig, blocks: list | None = None) -> float:
    """Rob-AntiRob negativity of the capped mode: the sum over the scalar
    partial-transpose blocks D = 1..2 cap + 2 (:func:`rrbar_block_diagonals`),
    built in one pass, with every coupling past the cap set to zero; later
    blocks lie wholly past it. Position 2i of block D pairs (i, i) with
    (D-1-i, D-1-i), position 2j+1 pairs (j+1, j) with (D-1-j, D-2-j), so
    only the second squeezed-sum index can pass the cap, at the positions
    below 2(D-1-cap)-1. ``renormalized`` divides by the kept mass, the sum
    of the block traces. The scalar sum's :func:`_block_sum` adds the
    blocks up as one piece, on the calling thread up to cap 21, and its
    ``ConvergenceError`` is the scalar sum's. If ``blocks`` is a list, the
    piece is appended to it as ``(range(1, 2 cap + 3), couplings,
    spectra)``, the couplings capped and divided as summed.
    ``TruncationError`` past the one-particle mass rule.
    """
    rv = _r_value(r, FieldKind.HARDCORE)
    _require_one_particle_mass(rv, hc.cap)
    sizes = range(1, 2 * hc.cap + 3)
    a, block, ell = _closed_bands(rv, sizes)
    a[ell < 2 * (block - 1 - hc.cap) - 1] = 0.0
    if hc.mode == "renormalized":
        a /= sum(a[ell == block - 1].tolist())  # the block traces, in order
    return _block_sum(rv, [(sizes, a)], blocks=blocks)


# ---------------------------------------------------------------------------
# dual-route reports
# ---------------------------------------------------------------------------

def _weight_measures(p0: np.ndarray, p1: np.ndarray) -> dict:
    """Every measure but N_RRbar of a pure state with weights p0[n] on
    (alice 0, rob n, antirob n) and p1[n] on (alice 1, rob n+1, antirob n),
    zero past Rob's axis. Alice's, Rob's and AntiRob's states are diagonal,
    and the Alice-Rob and Alice-AntiRob partial transposes are direct sums
    of 2x2 blocks coupled by sqrt(p0 p1), with closed-form eigenvalues.
    Raises ``NotAStateError`` if the Alice-AntiRob negativity, which the
    closed form proves to vanish, exceeds 1e-10.
    """
    out = mutual_informations(
        entropy_from_eigenvalues([p0.sum(), p1.sum()]),
        entropy_from_eigenvalues(p0 + np.concatenate(([0.0], p1[:-1]))),
        entropy_from_eigenvalues(p0 + p1))
    out["N_AR"] = negativity_from_pt_eigenvalues(_smaller_eigenvalues(
        p0[1:], np.concatenate(([0.0], p1[:-2])), np.sqrt(p0[:-1] * p1[:-1])))
    out["N_ARbar"] = negativity_from_pt_eigenvalues(_smaller_eigenvalues(
        p0[:-1], p1[1:], np.sqrt(p0[1:] * p1[:-1])))
    if out["N_ARbar"] > PSD_TOL:
        raise NotAStateError(
            f"Alice-AntiRob partial transpose has negativity "
            f"{out['N_ARbar']:.3e} > {PSD_TOL:.0e}")
    return out


def _oracle(psi: StateVector, n_max: int, blocks) -> tuple[dict, float]:
    """(every measure but N_RRbar, the bound of :func:`rrbar_mirsky_bound`
    on N_RRbar) from one :func:`scalar_diagonals` read of ``psi``. The
    measures (:func:`_weight_measures`) take the squared diagonals up to
    ``n_max`` and zero past it, with one zero past both axes so every
    shifted read stays in range: a state deeper than ``n_max`` gives them
    as the state at ``n_max`` would, whose amplitudes are its prefix
    bitwise. The bound reads the recorded ``blocks``.
    """
    v = np.array(scalar_diagonals(psi, max(_last_block(blocks), n_max + 3)))
    p = v[:, :n_max + 3] ** 2
    p[:, n_max + 1:] = 0.0
    return _weight_measures(*p), _mirsky_bound(*v, blocks)


def scalar_constructive_measures(r, cfg: TruncationConfig,
                                 psi: StateVector | None = None) -> dict:
    """Every measure but N_RRbar, read off the two diagonals of the
    truncated state ``psi`` (built at ``cfg`` if not given) as the reports'
    oracle reads them (:func:`_oracle`); :func:`rrbar_mirsky_bound` checks
    N_RRbar. Nothing is eigensolved; the dense reductions through
    :func:`bipartite_measures` are the tests' reference. Raises
    ``NotAStateError`` on an amplitude off the diagonals.
    """
    rv = _r_value(r, FieldKind.SCALAR)
    if psi is None:
        psi = scalar_tripartite_state(rv, cfg)
    return _oracle(psi, psi.dims[-1] - 1, [])[0]  # AntiRob holds 0..n_max


def scalar_report(r, cfg: TruncationConfig = TruncationConfig(),
                  oracle: bool = True) -> CorrelationReport:
    """Correlation report for the scalar field at one acceleration.

    The reported values come from the series/block closed forms; with
    ``oracle`` enabled they are checked by one read of a deeper state's two
    diagonals (:func:`_oracle`): five against the measures of its prefix
    up to the adaptive cutoff, as :func:`scalar_constructive_measures`
    gives them, and N_RRbar by the bound of :func:`rrbar_mirsky_bound`
    against its bands. Block entries decay like tanh^(n+m), not tanh^(2n),
    so twice the adaptive cutoff keeps their amplitude-level tail below
    tail_tol too. The oracle eigensolves nothing. The allowed discrepancy is
    1e-9 at the default truncation and scales with a loosened tail_tol,
    since the dropped tail shifts the constructive entropies by about
    tail_tol times a log factor. The deep state, the largest array, is
    built before any closed value, so one of more than DENSE_ORDER_MAX^2
    amplitudes (from r ~ 2.61 at the default truncation) raises
    ``TruncationError`` before anything is allocated or summed.
    """
    rv = _r_value(r, FieldKind.SCALAR)
    n_max = resolve_n_max(rv, cfg)
    dv, do = truncation_deficits(rv, n_max)
    # first: a deep state past the amplitude budget fails the row at once
    deep = scalar_tripartite_state(rv, replace(cfg, n_max=2 * n_max + 2)) if oracle else None
    blocks = [] if oracle else None
    ent = scalar_entropies(rv, cfg)
    closed = mutual_informations(ent.S_A, ent.S_R, ent.S_Rbar)
    closed.update(N_AR=scalar_negativity_AR(rv, cfg), N_ARbar=scalar_negativity_ARbar(rv, cfg),
                  N_RRbar=scalar_negativity_RRbar(rv, cfg, blocks))
    constructive, bound = _oracle(deep, n_max, blocks) if oracle else (None, 0.0)
    tol = max(ORACLE_TOL, 100.0 * cfg.tail_tol)
    return CorrelationReport.from_routes(rv, closed, constructive, (dv + do) / 2.0,
                                         tol, bound)


def hardcore_report(r, hc: HardcoreConfig, oracle: bool = True) -> CorrelationReport:
    """Correlation report for the capped-occupation mode.

    The closed route takes five measures from the capped closed weights
    (:func:`hardcore_closed_measures`) and N_RRbar from
    :func:`hardcore_negativity_RRbar`, whose 2 cap + 2 tridiagonal blocks
    are the only eigensolves. The oracle reads the capped state's two
    diagonals once (:func:`_oracle`, as a scalar report reads its deep
    state), for the five measures and for the bound of
    :func:`rrbar_mirsky_bound` on N_RRbar. Every builder applies the
    one-particle mass rule, so both routes raise ``TruncationError`` from
    the same r.
    """
    rv = _r_value(r, FieldKind.HARDCORE)
    dv, do = truncation_deficits(rv, hc.cap)
    deficit = 0.0 if hc.mode == "renormalized" else (dv + do) / 2.0
    closed = hardcore_closed_measures(rv, hc)
    blocks = [] if oracle else None
    closed["N_RRbar"] = hardcore_negativity_RRbar(rv, hc, blocks)
    constructive, bound = (_oracle(hardcore_tripartite_state(rv, hc), hc.cap, blocks)
                           if oracle else (None, 0.0))
    return CorrelationReport.from_routes(rv, closed, constructive, deficit, ORACLE_TOL,
                                         bound)
