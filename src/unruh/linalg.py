"""Symmetric eigenvalue machinery.

Dense matrices go to LAPACK through ``numpy.linalg.eigvalsh``
(:func:`sym_eigenvalues`); symmetric tridiagonal ones to LAPACK ``dsterf``
(:func:`tridiagonal_eigenvalues`). Both return the full spectrum sorted in
descending order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NotSymmetricError

_SYM_TOL = 1e-12


def check_symmetric(m: np.ndarray, tol: float = _SYM_TOL) -> np.ndarray:
    """Validate that ``m`` is a square real symmetric matrix; return it as float64."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    skew = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if skew > tol * scale:
        raise NotSymmetricError(f"matrix is not symmetric: max |m - m^T| = {skew:.3e}")
    return a


def sym_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by LAPACK, sorted descending.

    The input must be symmetric to 1e-12 relative to its largest entry.
    """
    return np.linalg.eigvalsh(check_symmetric(m))[::-1].copy()


def tridiagonal_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, sorted descending.

    Calls LAPACK ``dsterf`` (root-free QL/QR) directly, the routine that
    ``scipy.linalg.eigvalsh_tridiagonal`` reaches through ``dstevd``, so
    the spectrum is the same without the wrapper's per-call overhead. A
    nonzero ``info`` (no convergence, or non-finite input) raises
    ``ConvergenceError``.
    """
    # the module, not the name: `from scipy.linalg.lapack import dsterf`
    # made the first call, which imports scipy, about 25 ms slower
    from scipy.linalg import lapack

    diag = np.asarray(diag, dtype=float)
    if diag.size == 1:
        return diag.copy()
    offdiag = np.asarray(offdiag, dtype=float)
    if offdiag.shape != (diag.size - 1,):
        raise ValueError(f"off-diagonal of a {diag.size}x{diag.size} tridiagonal "
                         f"matrix needs {diag.size - 1} entries, got {offdiag.shape}")
    eigs, info = lapack.dsterf(diag, offdiag)
    if info != 0:
        raise ConvergenceError(
            f"LAPACK dsterf failed on a {diag.size}x{diag.size} tridiagonal matrix "
            f"(info={info})")
    return eigs[::-1].copy()
