import os
import subprocess
import sys

import numpy as np
import pytest

from unruh.errors import ConvergenceError, NotSymmetricError
from unruh.linalg import sym_eigenvalues, tridiagonal_eigenvalues


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


def test_import_does_not_load_scipy():
    # scipy is only needed by the tridiagonal path, imported on first use;
    # Dirac and hardcore reports, oracle included, never reach it: the
    # hardcore Rob-AntiRob blocks, 34 of them at cap 16, go to numpy
    import unruh
    src = os.path.dirname(os.path.dirname(unruh.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, unruh; "
            "unruh.dirac_report(0.3); "
            "unruh.hardcore_report(0.3, unruh.HardcoreConfig(cap=2)); "
            "unruh.hardcore_report(1.3, unruh.HardcoreConfig(cap=16, mode='renormalized')); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
