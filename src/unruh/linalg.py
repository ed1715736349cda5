"""Symmetric eigenvalue machinery.

Dense matrices go to LAPACK through ``numpy.linalg.eigvalsh``
(:func:`sym_eigenvalues`); symmetric tridiagonal ones to LAPACK ``dsterf``
(:func:`tridiagonal_eigenvalues`, and :func:`tridiagonal_spectra` for many
blocks at once). Both return the full spectrum sorted in descending order.

``dsterf`` is reached through the function pointer that
``scipy.linalg.cython_lapack`` exports, called by ``ctypes``, which
releases the GIL for the call. So :func:`tridiagonal_spectra` spreads its
blocks over the calling thread and a pool of one thread less than the
process has usable CPUs (its CPU affinity; restrict it with ``taskset`` to
use fewer), with one fork and join per call. Each block is solved alone,
in one working copy whose diagonal becomes its spectrum, so the spectra
are bitwise the same for any number of threads. The pool is made on
first need and dropped in a forked child.
"""

from __future__ import annotations

import ctypes
import functools
import os
import re
import threading

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


# the prototype `scipy.linalg.cython_lapack` declares for dsterf; `d` is
# its typedef of double
_DSTERF_SIGNATURE = r"void \(int \*, (\w*cython_lapack_d) \*, \1 \*, int \*\)"


@functools.cache
def _dsterf():
    """LAPACK ``dsterf(n, d, e, info)`` from scipy's Cython LAPACK capsule,
    as a ``ctypes`` function that runs without the GIL. The first call
    imports scipy."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dsterf"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    if not re.fullmatch(_DSTERF_SIGNATURE, name.decode()):
        raise ImportError(f"scipy's Cython LAPACK declares dsterf as {name.decode()!r}")
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    int_p = ctypes.POINTER(ctypes.c_int)
    return ctypes.CFUNCTYPE(None, int_p, ctypes.c_void_p, ctypes.c_void_p, int_p)(pointer)


def _bands(diag, offdiag) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous float64 copies of a tridiagonal matrix's two bands, which
    ``dsterf`` overwrites; ``ValueError`` if they do not fit together."""
    diag, offdiag = np.array(diag, dtype=float), np.array(offdiag, dtype=float)
    if diag.ndim != 1 or offdiag.shape != (diag.size - 1,):
        raise ValueError(f"a {diag.size}x{diag.size} tridiagonal matrix needs a "
                         f"diagonal of shape ({diag.size},) and an off-diagonal of "
                         f"shape ({diag.size - 1},), got {diag.shape} and {offdiag.shape}")
    return diag, offdiag


def _solve(diag: np.ndarray, offdiag: np.ndarray) -> int:
    """Overwrite the bands from :func:`_bands` with the ascending spectrum
    (``diag``) and scratch (``offdiag``); return LAPACK's ``info``."""
    info = ctypes.c_int(0)
    _dsterf()(ctypes.byref(ctypes.c_int(diag.size)), diag.ctypes.data,
              offdiag.ctypes.data, ctypes.byref(info))
    return info.value


def _solve_all(blocks) -> list[int]:
    return [_solve(diag, offdiag) for diag, offdiag in blocks]


def _failure(n: int, info: int, partial_value=None) -> ConvergenceError:
    return ConvergenceError(f"LAPACK dsterf failed on a {n}x{n} tridiagonal matrix "
                            f"(info={info})", partial_value=partial_value)


def tridiagonal_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, sorted descending.

    Calls LAPACK ``dsterf`` (root-free QL/QR) directly, the routine that
    ``scipy.linalg.eigvalsh_tridiagonal`` reaches through ``dstevd``, so
    the spectrum is the same without the wrapper's per-call overhead. A
    nonzero ``info`` (no convergence, or non-finite input) raises
    ``ConvergenceError``.
    """
    diag, offdiag = _bands(diag, offdiag)
    info = _solve(diag, offdiag)
    if info != 0:
        raise _failure(diag.size, info)
    return diag[::-1].copy()


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


def tridiagonal_spectra(bands) -> list[np.ndarray]:
    """:func:`tridiagonal_eigenvalues` of every ``(diag, offdiag)`` in
    ``bands`` (any iterable, read once), in order, bitwise equal to one
    call per block; each spectrum is a view of the block's working copy.

    The calling thread copies every block, then solves every k-th, for k
    usable CPUs, and a pool of k - 1 threads solves the others; on one CPU
    nothing is handed to a thread. ``ValueError`` on bands that do not
    fit, before any block is solved. ``ConvergenceError`` names the first
    block, in order, that LAPACK fails on; its ``partial_value`` is the
    list of the spectra before it.
    """
    blocks = [_bands(diag, offdiag) for diag, offdiag in bands]
    _dsterf()  # scipy is imported on this thread: on two at once it takes longer
    cpus = _usable_cpus()
    shares = max(1, min(len(blocks), cpus))
    pool = _executor(cpus - 1) if shares > 1 else None
    pending = [pool.submit(_solve_all, blocks[k::shares]) for k in range(1, shares)]
    infos = [0] * len(blocks)
    infos[0::shares] = _solve_all(blocks[0::shares])
    for k, share in enumerate(pending, 1):
        infos[k::shares] = share.result()
    spectra = []
    for (diag, _), info in zip(blocks, infos):
        if info != 0:
            raise _failure(diag.size, info, partial_value=spectra)
        spectra.append(diag[::-1])
    return spectra
