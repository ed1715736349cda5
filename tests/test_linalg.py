import ctypes
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from unruh import linalg
from unruh.errors import ConvergenceError, NotSymmetricError
from unruh.linalg import (sym_eigenvalues, tridiagonal_eigenvalues,
                          tridiagonal_spectra)


def test_identity():
    assert np.allclose(sym_eigenvalues(np.eye(3)), [1, 1, 1])


@pytest.mark.parametrize("a", [0.5, 3.0, 1e-6])
def test_antidiagonal_pair(a):
    eigs = sym_eigenvalues(np.array([[0.0, a], [a, 0.0]]))
    assert np.allclose(eigs, [a, -a])


def test_tridiagonal_corner_block():
    # [[0, 3/16], [3/16, 9/32]] has eigenvalues (a2 +- sqrt(a2^2 + 4 a1^2))/2
    m = np.array([[0.0, 3 / 16], [3 / 16, 9 / 32]])
    eigs = sym_eigenvalues(m)
    assert abs(eigs[0] - 3 / 8) < 1e-15
    assert abs(eigs[1] + 3 / 32) < 1e-15


def test_zero_and_single():
    assert np.allclose(sym_eigenvalues(np.zeros((4, 4))), 0.0)
    assert np.allclose(sym_eigenvalues(np.array([[7.0]])), [7.0])


def test_sorted_descending_and_trace():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2
    eigs = sym_eigenvalues(a)
    assert np.all(np.diff(eigs) <= 0)
    assert abs(eigs.sum() - np.trace(a)) < 1e-10


def test_non_symmetric_rejected():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NotSymmetricError):
        sym_eigenvalues(m)
    with pytest.raises(NotSymmetricError):
        sym_eigenvalues(np.zeros((2, 3)))


def test_tridiagonal_matches_dense():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 17):
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1) if n > 1 else np.zeros(0)
        m = np.diag(d)
        for k in range(n - 1):
            m[k, k + 1] = m[k + 1, k] = e[k]
        assert np.max(np.abs(tridiagonal_eigenvalues(d, e)
                             - sym_eigenvalues(m))) < 1e-12


def test_tridiagonal_matches_scipy_bitwise():
    from scipy.linalg import eigvalsh_tridiagonal
    rng = np.random.default_rng(13)
    for n in (2, 3, 9, 64, 200):
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        ours = tridiagonal_eigenvalues(d, e)
        assert ours.tobytes() == eigvalsh_tridiagonal(d, e)[::-1].tobytes()


def test_tridiagonal_failures_are_typed():
    with pytest.raises(ConvergenceError):
        tridiagonal_eigenvalues(np.array([1.0, np.nan, 2.0]), np.array([0.5, 0.1]))
    with pytest.raises(ValueError):
        tridiagonal_eigenvalues(np.zeros(3), np.zeros(3))


def _random_bands(seed, sizes):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(n), rng.standard_normal(n - 1)) for n in sizes]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_spectra_equal_one_call_per_block(monkeypatch, cpus):
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    bands = _random_bands(17, (1, 2, 40, 7, 3, 90, 5))
    kept = [(d.copy(), e.copy()) for d, e in bands]
    spectra = tridiagonal_spectra(bands)
    assert [s.tobytes() for s in spectra] == [
        tridiagonal_eigenvalues(d, e).tobytes() for d, e in bands]
    # the bands are read, not overwritten
    for (d, e), (d0, e0) in zip(bands, kept):
        assert d.tobytes() == d0.tobytes() and e.tobytes() == e0.tobytes()
    assert tridiagonal_spectra([]) == []


@pytest.mark.parametrize("cpus", [1, 3])
def test_spectra_failures_are_typed_and_ordered(monkeypatch, cpus):
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    bands = _random_bands(19, (4, 5, 6, 7, 8))
    bands[2][0][1] = bands[4][0][1] = np.nan
    with pytest.raises(ConvergenceError, match="6x6") as err:
        tridiagonal_spectra(bands)
    # the spectra before the first failed block
    assert [s.tobytes() for s in err.value.partial_value] == [
        tridiagonal_eigenvalues(d, e).tobytes() for d, e in bands[:2]]
    for misfit in ((np.zeros(3), np.zeros(3)), (np.zeros((2, 2)), np.zeros(3))):
        with pytest.raises(ValueError):
            tridiagonal_spectra(bands[:2] + [misfit])


def test_spectra_from_concurrent_callers(monkeypatch):
    # more solving threads than CPUs, and callers switched often
    import sys
    from concurrent.futures import ThreadPoolExecutor
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
    bands = _random_bands(23, range(2, 60))
    want = [tridiagonal_eigenvalues(d, e).tobytes() for d, e in bands]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            runs = [callers.submit(tridiagonal_spectra, bands) for _ in range(8)]
            got = [[s.tobytes() for s in run.result(timeout=60)] for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 8


# a meta-path finder that refuses every scipy import, for subprocesses
NO_SCIPY = ("import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy refused: ' + name)\n"
            "sys.meta_path.insert(0, NoScipy())\n")


def _python(code, check=True, cwd=None):
    import unruh
    src = os.path.dirname(os.path.dirname(unruh.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=check, cwd=cwd,
                          capture_output=True, text=True)


def _numpy_lapack():
    from numpy.linalg import _umath_linalg
    return ctypes.CDLL(_umath_linalg.__file__)


needs_numpy_dsterf = pytest.mark.skipif(
    linalg._numpy_dsterf(_numpy_lapack()) is None,
    reason="numpy's LAPACK exports no dsterf here: the scalar path needs scipy")


@needs_numpy_dsterf
def test_import_does_not_load_scipy():
    # the tridiagonal path takes dsterf from numpy's own LAPACK, looked up
    # on first use: no report loads scipy. Dirac and hardcore reports, oracle
    # included, start no thread pool either: the hardcore Rob-AntiRob blocks,
    # 34 of them at cap 16, are solved on the calling thread
    code = ("import sys, threading, unruh; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "unruh.dirac_report(0.3); "
            "unruh.hardcore_report(0.3, unruh.HardcoreConfig(cap=2)); "
            "unruh.hardcore_report(1.3, unruh.HardcoreConfig(cap=16, mode='renormalized')); "
            "print(scipy() + [m for m in sys.modules if m == 'concurrent.futures'], "
            "threading.active_count()); "
            "unruh.scalar_report(1.5); "
            "print(scipy())")
    assert _python(code).stdout.split("\n")[:2] == ["[] 1", "[]"]


@needs_numpy_dsterf
def test_sweep_without_scipy_is_byte_identical(tmp_path):
    from unruh import cli
    assert cli.main(["--preset", "fig4", "--out", str(tmp_path / "normal.csv")]) == 0
    _python(NO_SCIPY + "from unruh import cli\n"
            "sys.exit(cli.main(['--preset', 'fig4', '--out', 'refused.csv']))\n",
            cwd=tmp_path)
    normal = (tmp_path / "normal.csv").read_bytes()
    assert (tmp_path / "refused.csv").read_bytes() == normal


@pytest.mark.parametrize("field", [["scalar"], ["hardcore", "--cap", "2"]])
def test_missing_lapack_is_one_error_line(tmp_path, field):
    # neither numpy's LAPACK nor scipy has dsterf
    argv = ["--field", *field, "--r-max", "0.5", "--steps", "3"]
    proc = _python(NO_SCIPY + "from unruh import cli, linalg\n"
                   "linalg._DSTERF_NAMES = ()\n"
                   f"sys.exit(cli.main({argv!r}))\n", check=False, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: LAPACK dsterf not found")
    assert "pip install scipy" in lines[0] and proc.stdout == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.fixture
def fresh_lookup():
    # the lookup is cached per process: forget it before and after a test
    # that forces a route
    linalg._dsterf.cache_clear()
    yield
    linalg._dsterf.cache_clear()


def _spectra_by_route(monkeypatch, bands):
    """(numpy-route spectra, scipy-capsule spectra) of every band."""
    pytest.importorskip("scipy.linalg.cython_lapack")
    ours = [s.tobytes() for s in tridiagonal_spectra(bands)]
    monkeypatch.setattr(linalg, "_DSTERF_NAMES", ())
    linalg._dsterf.cache_clear()
    assert linalg._dsterf()[1] is ctypes.c_int
    return ours, [s.tobytes() for s in tridiagonal_spectra(bands)]


@needs_numpy_dsterf
@pytest.mark.parametrize("r", [0.3, 1.0, 1.5, 1.65])
def test_scipy_fallback_matches_numpy_route_on_closed_blocks(fresh_lookup, monkeypatch, r):
    from unruh.scalar import rrbar_block_diagonals
    ours, fallback = _spectra_by_route(
        monkeypatch, [rrbar_block_diagonals(r, D) for D in range(1, 401)])
    assert fallback == ours


@needs_numpy_dsterf
def test_scipy_fallback_matches_numpy_route_on_random_bands(fresh_lookup, monkeypatch):
    # the bands of test_tridiagonal_matches_scipy_bitwise
    rng = np.random.default_rng(13)
    bands = [(rng.standard_normal(n), rng.standard_normal(n - 1))
             for n in (2, 3, 9, 64, 200)]
    ours, fallback = _spectra_by_route(monkeypatch, bands)
    assert fallback == ours


def test_dsterf_integer_width_follows_the_symbol(fresh_lookup, monkeypatch):
    real = getattr(_numpy_lapack(), "scipy_dsterf_64_", None)
    if real is None:
        pytest.skip("numpy exports no scipy_dsterf_64_ here")
    widths = {"scipy_dsterf_64_": ctypes.c_int64, "dsterf_64_": ctypes.c_int64,
              "scipy_dsterf_": ctypes.c_int}
    assert set(widths) == set(linalg._DSTERF_NAMES)
    for name, width in widths.items():
        assert linalg._numpy_dsterf(types.SimpleNamespace(**{name: real}))[1] is width
    # a bare name may have either width: not trusted
    assert linalg._numpy_dsterf(types.SimpleNamespace(dsterf_=real)) is None
    # the function this process calls, then the capsule's
    dsterf, int_t = linalg._dsterf()
    assert int_t is ctypes.c_int64
    assert [a._type_ for a in dsterf.argtypes[::3]] == [int_t, int_t]
    pytest.importorskip("scipy.linalg.cython_lapack")
    monkeypatch.setattr(linalg, "_DSTERF_NAMES", ())
    linalg._dsterf.cache_clear()
    dsterf, int_t = linalg._dsterf()
    assert int_t is ctypes.c_int
    assert [a._type_ for a in dsterf.argtypes[::3]] == [int_t, int_t]
