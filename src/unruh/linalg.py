"""Symmetric eigenvalue machinery.

Dense matrices go to LAPACK through ``numpy.linalg.eigvalsh``
(:func:`sym_eigenvalues`); symmetric tridiagonal ones to LAPACK ``dsterf``
(:func:`tridiagonal_eigenvalues`, and :func:`tridiagonal_spectra` for many
blocks at once). Both return the full spectrum sorted in descending order.

``dsterf`` comes from the LAPACK that numpy has already loaded: the
OpenBLAS bundled with numpy's Linux wheels exports it as
``scipy_dsterf_64_``. It is looked up on the first tridiagonal solve, not
at import. Where numpy exports none of the names looked for (Windows,
macOS Accelerate or MKL builds may not), the function pointer that
``scipy.linalg.cython_lapack`` exports is used instead, and only then is
scipy imported; both run the same reference routine. With neither, a
solve raises ``MissingLapackError``. ``dsterf`` is called by ``ctypes``,
which releases the GIL, so :func:`_solve_blocks`, under
:func:`tridiagonal_spectra` and the Rob-AntiRob block sums, spreads enough
work over the calling thread and a pool of one thread less than the
process has usable CPUs (its CPU affinity; restrict it with ``taskset``).
Each block is solved alone, so the spectra are bitwise the same for any
number of threads. The pool is made on first need and dropped in a
forked child.
"""

from __future__ import annotations

import ctypes
import functools
import os
import re
import threading

import numpy as np

from .errors import ConvergenceError, MissingLapackError, NotSymmetricError

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


# names numpy's bundled OpenBLAS exports dsterf under; the `64_` suffix
# marks its ILP64 build, whose integers are 64-bit. A bare `dsterf_` may have
# either width, so it is not looked for
_DSTERF_NAMES = ("scipy_dsterf_64_", "dsterf_64_", "scipy_dsterf_")
# the prototype `scipy.linalg.cython_lapack` declares for dsterf; `d` is
# its typedef of double
_DSTERF_SIGNATURE = r"void \(int \*, (\w*cython_lapack_d) \*, \1 \*, int \*\)"


def _numpy_dsterf(lib):
    """(address of dsterf, its integer type) under the first of
    ``_DSTERF_NAMES`` that ``lib`` exports, else None."""
    for name in _DSTERF_NAMES:
        if hasattr(lib, name):
            int_t = ctypes.c_int64 if name.endswith("64_") else ctypes.c_int
            return ctypes.cast(getattr(lib, name), ctypes.c_void_p).value, int_t
    return None


def _scipy_dsterf():
    """(address of dsterf, ``c_int``) from scipy's Cython LAPACK capsule."""
    try:
        from scipy.linalg import cython_lapack
    except ImportError as err:
        raise MissingLapackError(
            f"LAPACK dsterf not found: numpy's LAPACK exports none of "
            f"{', '.join(_DSTERF_NAMES)} and scipy cannot be imported; "
            f"install it with pip install scipy") from err
    capsule = cython_lapack.__pyx_capi__["dsterf"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    if not re.fullmatch(_DSTERF_SIGNATURE, name.decode()):
        raise MissingLapackError(f"LAPACK dsterf not found: scipy's Cython LAPACK "
                                 f"declares it as {name.decode()!r}")
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name), ctypes.c_int


@functools.cache
def _dsterf():
    """(LAPACK ``dsterf(n, d, e, info)`` as a ``ctypes`` function that runs
    without the GIL, the integer type of ``n`` and ``info``): numpy's, else
    scipy's. ``MissingLapackError`` if neither has it."""
    try:
        from numpy.linalg import _umath_linalg
        found = _numpy_dsterf(ctypes.CDLL(_umath_linalg.__file__))
    except (ImportError, AttributeError, OSError):  # not a shared library here
        found = None
    pointer, int_t = found or _scipy_dsterf()
    int_p = ctypes.POINTER(int_t)
    dsterf = ctypes.CFUNCTYPE(None, int_p, ctypes.c_void_p, ctypes.c_void_p, int_p)
    return dsterf(pointer), int_t


def _bands(diag, offdiag) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous float64 copies of a tridiagonal matrix's two bands, which
    ``dsterf`` overwrites; ``ValueError`` if they do not fit together."""
    diag, offdiag = np.array(diag, dtype=float), np.array(offdiag, dtype=float)
    if diag.ndim != 1 or offdiag.shape != (diag.size - 1,):
        raise ValueError(f"a {diag.size}x{diag.size} tridiagonal matrix needs a "
                         f"diagonal of shape ({diag.size},) and an off-diagonal of "
                         f"shape ({diag.size - 1},), got {diag.shape} and {offdiag.shape}")
    return diag, offdiag


def _solve(n: int, diag: int, offdiag: int) -> int:
    """Overwrite the n x n bands at addresses ``diag`` and ``offdiag``, kept
    alive by the caller, with the ascending spectrum and scratch; return
    LAPACK's ``info``."""
    dsterf, int_t = _dsterf()
    info = int_t(0)
    dsterf(int_t(n), diag, offdiag, info)  # ctypes passes n and info by reference
    return info.value


def _solve_all(blocks) -> list[int]:
    return [_solve(n, diag, offdiag) for n, diag, offdiag in blocks]


def _failure(n: int, info: int, partial_value=None) -> ConvergenceError:
    return ConvergenceError(f"LAPACK dsterf failed on a {n}x{n} tridiagonal matrix "
                            f"(info={info})", partial_value=partial_value)


def tridiagonal_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, sorted descending.

    Calls LAPACK ``dsterf`` (root-free QL/QR) directly, the routine that
    ``scipy.linalg.eigvalsh_tridiagonal`` reaches through ``dstevd``, so
    the spectrum is the same without the wrapper's per-call overhead. A
    nonzero ``info`` (no convergence, or non-finite input) raises
    ``ConvergenceError``. :func:`tridiagonal_spectra` solves many blocks,
    bitwise equal to one call per block.
    """
    return tridiagonal_spectra([(diag, offdiag)])[0].copy()


# squared block orders in all below which the pool costs more than it saves:
# blocks 1..K took 1.04-1.22 times the one-thread time on 2 CPUs at K = 40
# (22,140), 0.90-0.94 times at K = 48 (38,024)
_POOL_MIN_WORK = 30_000
_pool = None  # (threads, ThreadPoolExecutor), made on first need
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _executor(threads: int):
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="unruh-dsterf"))
        return _pool[1]


def _drop_pool() -> None:
    # a forked child has none of the parent's threads: a pool that thinks it
    # has them would queue work that never runs, and a lock one of them
    # held at the fork would never be released
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _solve_blocks(blocks) -> tuple[int, int]:
    """Solve every ``(n, diag, offdiag)`` of ``blocks`` in place by
    :func:`_solve`; return the number of blocks before the first LAPACK
    fails on and its ``info`` (all, and 0, if none). The calling thread
    solves every k-th, for k usable CPUs, and a pool of k - 1 threads the
    others, unless the orders square to less than ``_POOL_MIN_WORK``."""
    _dsterf()  # looked up here, before a pool thread needs it
    pooled = sum(n * n for n, _, _ in blocks) >= _POOL_MIN_WORK
    cpus = _usable_cpus() if pooled else 1
    shares = max(1, min(len(blocks), cpus))
    if shares == 1:
        infos = _solve_all(blocks)
    else:
        pool = _executor(cpus - 1)
        pending = [pool.submit(_solve_all, blocks[k::shares]) for k in range(1, shares)]
        infos = [0] * len(blocks)
        infos[0::shares] = _solve_all(blocks[0::shares])
        for k, share in enumerate(pending, 1):
            infos[k::shares] = share.result()
    if not any(infos):
        return len(infos), 0
    failed = next(k for k, info in enumerate(infos) if info)
    return failed, infos[failed]


def tridiagonal_spectra(bands) -> list[np.ndarray]:
    """Descending spectra of every ``(diag, offdiag)`` in ``bands`` (any
    iterable, read once), in order, each a view of the block's working
    copy, solved by :func:`_solve_blocks`. ``ValueError`` on bands that do
    not fit, before any block is solved. ``ConvergenceError`` names the
    first block, in order, that LAPACK fails on; its ``partial_value`` is
    the list of the spectra before it.
    """
    blocks = [_bands(diag, offdiag) for diag, offdiag in bands]
    solved, info = _solve_blocks([(diag.size, diag.ctypes.data, offdiag.ctypes.data)
                                  for diag, offdiag in blocks])
    spectra = [diag[::-1] for diag, _ in blocks[:solved]]
    if info != 0:
        raise _failure(blocks[solved][0].size, info, partial_value=spectra)
    return spectra
