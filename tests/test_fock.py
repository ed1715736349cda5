import math

import numpy as np
import pytest

from unruh.errors import BasisError
from unruh.fock import (Bipartition, DensityMatrix, FieldKind, LabeledBasis,
                        SqueezingParam, StateVector, Subsystem, basis_state,
                        density_from_state, partial_trace, partial_transpose,
                        reduced_density_matrix, tensor_state)
from unruh.linalg import sym_eigenvalues

A, R, B = Subsystem.ALICE, Subsystem.ROB, Subsystem.ANTIROB


def random_pure_state(rng, dims=(2, 3, 3)):
    amps = rng.standard_normal(int(np.prod(dims)))
    amps /= np.linalg.norm(amps)
    basis = (LabeledBasis.fock(A, dims[0] - 1), LabeledBasis.fock(R, dims[1] - 1),
             LabeledBasis.fock(B, dims[2] - 1))
    return StateVector(basis, amps)


def bell_state():
    basis = (LabeledBasis.fock(A, 1), LabeledBasis.fock(R, 1))
    return StateVector(basis, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_labeled_basis():
    fock = LabeledBasis.fock(R, 3)
    assert fock.labels == (0, 1, 2, 3)
    dirac = LabeledBasis.dirac(B)
    assert dirac.labels == ("vac", "up", "down", "pair")
    assert dirac.index("down") == 2
    with pytest.raises(BasisError):
        LabeledBasis(R, (0, 0, 1))
    with pytest.raises(BasisError):
        LabeledBasis(R, ())
    with pytest.raises(BasisError):
        LabeledBasis.qubit(A, ("vac",))


def test_squeezing_param_ranges():
    SqueezingParam(FieldKind.DIRAC, math.pi / 4)
    SqueezingParam(FieldKind.SCALAR, 12.0)
    with pytest.raises(ValueError):
        SqueezingParam(FieldKind.DIRAC, math.pi / 4 + 1e-6)
    with pytest.raises(ValueError):
        SqueezingParam(FieldKind.SCALAR, -0.1)
    with pytest.raises(ValueError):
        SqueezingParam(FieldKind.HARDCORE, float("inf"))


def test_state_vector_validation():
    basis = (LabeledBasis.fock(A, 1),)
    with pytest.raises(BasisError):
        StateVector(basis, np.ones(3))
    with pytest.raises(ValueError):
        StateVector(basis, np.array([1.0, 1.0]))  # norm^2 = 2
    # declared deficit makes a sub-unit norm legal
    StateVector(basis, np.array([0.8, 0.0]), trace_deficit=1 - 0.64)


def test_density_matrix_validation():
    basis = (LabeledBasis.fock(A, 1),)
    with pytest.raises(Exception):
        DensityMatrix(basis, np.array([[0.5, 0.3], [0.2, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(basis, np.eye(2))  # trace 2
    dm = DensityMatrix(basis, np.eye(2) / 2)
    assert dm.dim == 2


def test_bipartition_kept():
    assert Bipartition.ALICE_ROB.kept == (A, R)
    assert Bipartition.ROB_ANTIROB.kept == (R, B)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_of_unit_vectors():
    psi = tensor_state(basis_state(LabeledBasis.fock(A, 1), 0),
                       basis_state(LabeledBasis.fock(R, 1), 0),
                       basis_state(LabeledBasis.fock(B, 1), 0))
    assert psi.amplitude((0, 0, 0)) == 1.0
    assert psi.norm2 == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(3)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(4)
    b /= np.linalg.norm(b)
    psi = tensor_state(StateVector((LabeledBasis.fock(A, 2),), a),
                       StateVector((LabeledBasis.fock(R, 3),), b))
    assert abs(psi.norm2 - 1.0) < 1e-12


def test_tensor_duplicate_subsystem_rejected():
    u = basis_state(LabeledBasis.fock(R, 1), 0)
    with pytest.raises(BasisError):
        tensor_state(u, u)


def test_tensor_with_dirac_vacuum_at_max_acceleration():
    from unruh.dirac import dirac_vacuum
    psi = tensor_state(basis_state(LabeledBasis.fock(A, 0), 0),
                       dirac_vacuum(math.pi / 4))
    nz = psi.amplitudes[np.abs(psi.amplitudes) > 0]
    assert len(nz) == 4
    assert np.allclose(nz, 0.5)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_of_product_state_is_pure():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(5)
    b /= np.linalg.norm(b)
    psi = tensor_state(StateVector((LabeledBasis.fock(A, 1),), a),
                       StateVector((LabeledBasis.fock(R, 4),), b))
    red = partial_trace(density_from_state(psi), (A,))
    eigs = sym_eigenvalues(red.entries)
    assert abs(eigs[0] - 1.0) < 1e-12
    assert np.all(np.abs(eigs[1:]) < 1e-12)


def test_partial_trace_bell():
    red = partial_trace(density_from_state(bell_state()), (R,))
    assert np.allclose(red.entries, np.eye(2) / 2)


def test_partial_trace_preserves_trace_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = random_pure_state(rng)
        rho = density_from_state(psi)
        for keep in [(A,), (R, B), (A, B)]:
            red = partial_trace(rho, keep)
            assert abs(np.trace(red.entries) - 1.0) < 1e-13
            assert sym_eigenvalues(red.entries).min() >= -1e-12


def test_partial_trace_matches_pure_state_reduction():
    rng = np.random.default_rng(4)
    for _ in range(5):
        psi = random_pure_state(rng)
        rho = density_from_state(psi)
        for keep in [(A,), (B,), (A, R), (R, B)]:
            direct = partial_trace(rho, keep)
            shortcut = reduced_density_matrix(psi, keep)
            assert np.max(np.abs(direct.entries - shortcut.entries)) < 1e-14
            assert direct.subsystems == shortcut.subsystems


def test_partial_trace_keep_validation():
    rho = density_from_state(bell_state())
    with pytest.raises(BasisError):
        partial_trace(rho, ())
    with pytest.raises(BasisError):
        partial_trace(rho, (A, R))
    with pytest.raises(BasisError):
        partial_trace(rho, (B,))


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def test_partial_transpose_diagonal_invariant():
    basis = (LabeledBasis.fock(A, 1), LabeledBasis.fock(R, 1))
    rho = DensityMatrix(basis, np.diag([0.4, 0.3, 0.2, 0.1]))
    eta = partial_transpose(rho, R)
    assert np.allclose(eta.entries, rho.entries)


def test_partial_transpose_bell_spectrum():
    eta = partial_transpose(density_from_state(bell_state()), R)
    eigs = sym_eigenvalues(eta.entries)
    assert np.allclose(eigs, [0.5, 0.5, 0.5, -0.5])
    assert abs(np.trace(eta.entries) - 1.0) < 1e-14


def test_partial_transpose_involution():
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(12)
    amps /= np.linalg.norm(amps)
    psi = StateVector((LabeledBasis.fock(A, 2), LabeledBasis.fock(R, 3)), amps)
    rho = density_from_state(psi)
    for side in (A, R):
        twice = partial_transpose(partial_transpose(rho, side), side)
        assert np.max(np.abs(twice.entries - rho.entries)) < 1e-14


def test_partial_transpose_requires_bipartite():
    rho = density_from_state(random_pure_state(np.random.default_rng(6)))
    with pytest.raises(BasisError):
        partial_transpose(rho, A)
    with pytest.raises(BasisError):
        partial_transpose(partial_trace(rho, (A,)), A)


def test_pure_state_complementary_entropies():
    # S of a reduction equals S of its complement for any pure state
    from unruh.measures import von_neumann_entropy
    rng = np.random.default_rng(7)
    for _ in range(5):
        psi = random_pure_state(rng)
        rho = density_from_state(psi)
        for keep, rest in [((A,), (R, B)), ((R,), (A, B)), ((A, R), (B,))]:
            s1 = von_neumann_entropy(partial_trace(rho, keep))
            s2 = von_neumann_entropy(partial_trace(rho, rest))
            assert abs(s1 - s2) < 1e-9
