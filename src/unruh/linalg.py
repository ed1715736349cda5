"""Symmetric eigenvalue machinery.

Two interchangeable backends sit behind :func:`sym_eigenvalues`: a cyclic
Jacobi rotation scheme (dependency-free, backward stable, the default for
small matrices) and LAPACK via ``numpy.linalg.eigvalsh`` for larger ones.
Both return the full spectrum sorted in descending order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NotSymmetricError

# Dense Jacobi is quadratic per sweep; beyond this order LAPACK wins by a lot.
JACOBI_SIZE_LIMIT = 32

_SYM_TOL = 1e-12
_OFF_DIAG_TOL = 1e-13
_MAX_SWEEPS = 100


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


def jacobi_eigenvalues(m: np.ndarray, max_sweeps: int = _MAX_SWEEPS,
                       off_tol: float = _OFF_DIAG_TOL) -> np.ndarray:
    """Full spectrum of a real symmetric matrix by cyclic Jacobi rotations.

    Converged when the off-diagonal Frobenius norm drops below ``off_tol``
    times the Frobenius norm of the input. Raises ``ConvergenceError`` after
    ``max_sweeps`` full sweeps.
    """
    a = check_symmetric(m).copy()
    n = a.shape[0]
    if n == 1:
        return a.ravel().copy()
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
    threshold = off_tol * scale

    def off_norm() -> float:
        off = a - np.diag(np.diag(a))
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if off_norm() <= threshold:
            return np.sort(np.diag(a))[::-1].copy()
        # rotations smaller than this cannot move the off-norm past threshold
        skip = threshold / (2.0 * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = c * c * app - 2.0 * s * c * apq + s * s * aqq
                a[q, q] = s * s * app + 2.0 * s * c * apq + c * c * aqq
                a[p, q] = 0.0
                a[q, p] = 0.0
    if off_norm() <= threshold:
        return np.sort(np.diag(a))[::-1].copy()
    raise ConvergenceError(
        f"Jacobi sweep cap ({max_sweeps}) reached with off-diagonal norm "
        f"{off_norm():.3e} > {threshold:.3e}",
        partial_value=np.sort(np.diag(a))[::-1].copy(),
    )


def sym_eigenvalues(m: np.ndarray, method: str = "auto") -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted descending.

    ``method`` is ``"jacobi"``, ``"lapack"`` or ``"auto"`` (Jacobi up to
    ``JACOBI_SIZE_LIMIT``, LAPACK beyond). The input must be symmetric to
    1e-12 relative to its largest entry.
    """
    a = check_symmetric(m)
    if method == "auto":
        method = "jacobi" if a.shape[0] <= JACOBI_SIZE_LIMIT else "lapack"
    if method == "jacobi":
        return jacobi_eigenvalues(a)
    if method == "lapack":
        return np.linalg.eigvalsh(a)[::-1].copy()
    raise ValueError(f"unknown eigenvalue method {method!r}")


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
