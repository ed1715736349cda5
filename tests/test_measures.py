import math

import numpy as np
import pytest

from unruh.errors import NotAStateError
from unruh.fock import (Bipartition, DensityMatrix, LabeledBasis, StateVector,
                        Subsystem, density_from_state, reduced_density_matrix,
                        tensor_state)
from unruh.measures import (bipartite_measures, entropy_from_eigenvalues,
                            log_negativity, log_negativity_from_negativity,
                            mutual_information, negativity,
                            von_neumann_entropy)

A, R, B = Subsystem.ALICE, Subsystem.ROB, Subsystem.ANTIROB


def bell():
    basis = (LabeledBasis.fock(A, 1), LabeledBasis.fock(R, 1))
    return DensityMatrix(basis, np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2)


def test_entropy_pure_and_mixed():
    assert entropy_from_eigenvalues([1.0, 0.0, 0.0]) == 0.0
    assert abs(entropy_from_eigenvalues([0.5, 0.5]) - 1.0) < 1e-15
    # four-level spectrum with two pairs: 2*(3/8)log2(8/3) + 2*(1/8)*3
    s = entropy_from_eigenvalues([3 / 8, 1 / 8, 3 / 8, 1 / 8])
    assert abs(s - 1.8112781244591328) < 1e-12


def test_entropy_rejects_negative_spectrum():
    with pytest.raises(NotAStateError):
        entropy_from_eigenvalues([1.1, -1e-6])
    # tiny numerical noise is clipped instead
    assert entropy_from_eigenvalues([1.0, -1e-12]) == 0.0


def test_entropy_bounded_by_log_dim():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(6))
    s = entropy_from_eigenvalues(p)
    assert 0.0 <= s <= math.log2(6) + 1e-12


def test_von_neumann_entropy_of_matrix():
    basis = (LabeledBasis.fock(A, 1),)
    assert von_neumann_entropy(DensityMatrix(basis, np.eye(2) / 2)) == 1.0
    assert von_neumann_entropy(DensityMatrix(basis, np.diag([1.0, 0.0]))) == 0.0


def test_mutual_information_product_state_is_zero():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(4)
    b /= np.linalg.norm(b)
    psi = tensor_state(StateVector((LabeledBasis.fock(A, 1),), a),
                       StateVector((LabeledBasis.fock(R, 3),), b))
    assert abs(mutual_information(density_from_state(psi))) < 1e-12


def test_mutual_information_bell_is_two():
    assert abs(mutual_information(bell()) - 2.0) < 1e-12


def test_negativity_bell():
    assert abs(negativity(bell(), R) - 0.5) < 1e-12
    assert abs(negativity(bell(), A) - 0.5) < 1e-12


def test_negativity_separable_diagonal():
    basis = (LabeledBasis.fock(A, 1), LabeledBasis.fock(R, 1))
    rho = DensityMatrix(basis, np.diag([0.4, 0.1, 0.2, 0.3]))
    assert negativity(rho, R) == 0.0


def test_negativity_independent_of_transposed_side():
    rng = np.random.default_rng(2)
    basis = (LabeledBasis.fock(A, 2), LabeledBasis.fock(R, 3))
    for _ in range(8):
        amps = rng.standard_normal(12)
        amps /= np.linalg.norm(amps)
        rho = density_from_state(StateVector(basis, amps))
        assert abs(negativity(rho, A) - negativity(rho, R)) < 1e-10


def test_log_negativity():
    assert log_negativity_from_negativity(0.0) == 0.0
    assert abs(log_negativity(bell(), R) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        log_negativity_from_negativity(-0.1)


def test_bipartite_measures_bell_pair_next_to_a_pure_party():
    # Alice and Rob share a Bell pair; AntiRob sits in a pure state of its own
    pair = StateVector((LabeledBasis.fock(A, 1), LabeledBasis.fock(R, 1)),
                       np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    alone = StateVector((LabeledBasis.fock(B, 2),), np.array([0.6, 0.0, 0.8]))
    psi = tensor_state(pair, alone)
    got = bipartite_measures({bip: reduced_density_matrix(psi, bip.kept)
                              for bip in Bipartition})
    want = {"I_AR": 2.0, "I_ARbar": 0.0, "I_RRbar": 0.0,
            "N_AR": 0.5, "N_ARbar": 0.0, "N_RRbar": 0.0}
    assert set(got) == set(want)
    for key in want:
        assert abs(got[key] - want[key]) < 1e-12
