"""Classical and quantum correlation measures.

Entropies and mutual information are reported in bits (base-2 logs, with
0 log 0 = 0). Negativity sums the negative half of the partial-transpose
spectrum; eigenvalues within 1e-12 of zero count as zero, since closed
forms produce exact zeros that floating point perturbs. Every dense
spectrum comes from LAPACK (:func:`unruh.linalg.sym_eigenvalues`).

:func:`bipartite_measures` turns the bipartite density matrices of a pure
Alice/Rob/AntiRob state into the six reported measures; every field and
route takes its mutual informations from :func:`mutual_informations`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotAStateError
from .fock import (Bipartition, DensityMatrix, Subsystem, partial_trace,
                   partial_transpose)
from .linalg import sym_eigenvalues

NEGATIVITY_ZERO_TOL = 1e-12
PSD_TOL = 1e-10  # a state's eigenvalue below -PSD_TOL is a bug, not rounding


def entropy_from_eigenvalues(eigenvalues) -> float:
    """Shannon entropy -sum(l log2 l) of a spectrum, in bits.

    Raises ``NotAStateError`` if any eigenvalue is below -1e-10; smaller
    negative noise is clipped to zero.
    """
    e = np.asarray(eigenvalues, dtype=float)
    if e.size and float(e.min()) < -PSD_TOL:
        raise NotAStateError(
            f"eigenvalue {float(e.min()):.3e} below -{PSD_TOL:.0e}: not a state")
    e = e[e > 0.0]
    if e.size == 0:
        return 0.0
    return float(-(e * np.log2(e)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    return entropy_from_eigenvalues(sym_eigenvalues(rho.entries))


def mutual_information(rho_ab: DensityMatrix) -> float:
    """Total correlations S_A + S_B - S_AB of a bipartite state, in bits."""
    if len(rho_ab.basis) != 2:
        raise ValueError("mutual information needs a bipartite state")
    sub_a, sub_b = rho_ab.subsystems
    s_a = von_neumann_entropy(partial_trace(rho_ab, (sub_a,)))
    s_b = von_neumann_entropy(partial_trace(rho_ab, (sub_b,)))
    s_ab = von_neumann_entropy(rho_ab)
    value = s_a + s_b - s_ab
    return 0.0 if -1e-12 < value < 0.0 else value


def negativity_from_pt_eigenvalues(eigenvalues) -> float:
    """Minus the sum of the negative partial-transpose eigenvalues."""
    e = np.asarray(eigenvalues, dtype=float)
    neg = e[e < -NEGATIVITY_ZERO_TOL]
    return float(-neg.sum()) if neg.size else 0.0


def negativity(rho_ab: DensityMatrix, transposed: Subsystem) -> float:
    """Entanglement negativity of a bipartite state."""
    eta = partial_transpose(rho_ab, transposed)
    return negativity_from_pt_eigenvalues(sym_eigenvalues(eta.entries))


def log_negativity_from_negativity(neg: float) -> float:
    """Logarithmic negativity log2(1 + 2N); zero exactly when N is zero."""
    if neg < 0:
        raise ValueError(f"negativity must be >= 0, got {neg}")
    return math.log2(1.0 + 2.0 * neg)


def log_negativity(rho_ab: DensityMatrix, transposed: Subsystem) -> float:
    return log_negativity_from_negativity(negativity(rho_ab, transposed))


def mutual_informations(s_a: float, s_r: float, s_rbar: float) -> dict:
    """I_AR, I_ARbar and I_RRbar of a pure Alice/Rob/AntiRob state from its
    single-party entropies, in bits: S_AR = S_Rbar, S_ARbar = S_R, S_RRbar = S_A."""
    return {
        "I_AR": s_a + s_r - s_rbar,
        "I_ARbar": s_a + s_rbar - s_r,
        "I_RRbar": s_r + s_rbar - s_a,
    }


def bipartite_measures(rho: dict[Bipartition, DensityMatrix]) -> dict:
    """The mutual informations and negativities of a pure tripartite state,
    from its bipartite density matrices.

    Only Alice's, Rob's and AntiRob's entropies are eigensolved; purity (of
    a truncated state too: complementary reductions share their nonzero
    spectrum) gives the joint ones. Each negativity transposes the second
    party; N_RRbar is computed only when ``rho`` holds the Rob-AntiRob matrix.
    """
    ar = rho[Bipartition.ALICE_ROB]
    arbar = rho[Bipartition.ALICE_ANTIROB]
    a, ro, ab = Subsystem.ALICE, Subsystem.ROB, Subsystem.ANTIROB
    out = mutual_informations(
        von_neumann_entropy(partial_trace(ar, (a,))),
        von_neumann_entropy(partial_trace(ar, (ro,))),
        von_neumann_entropy(partial_trace(arbar, (ab,))))
    out["N_AR"] = negativity(ar, ro)
    out["N_ARbar"] = negativity(arbar, ab)
    if Bipartition.ROB_ANTIROB in rho:
        out["N_RRbar"] = negativity(rho[Bipartition.ROB_ANTIROB], ab)
    return out
