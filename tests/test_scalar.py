import itertools
import math
import tracemalloc

import numpy as np
import pytest

from unruh import fock, linalg, measures, scalar
from unruh.errors import (ConvergenceError, NotAStateError, OracleMismatchError,
                          TruncationError)
from unruh.fock import (Bipartition, FieldKind, LabeledBasis, StateVector,
                        Subsystem, partial_trace, partial_transpose,
                        reduced_density_matrix)
from unruh.linalg import sym_eigenvalues, tridiagonal_eigenvalues
from unruh.measures import (negativity, negativity_from_pt_eigenvalues,
                            von_neumann_entropy)
from unruh.scalar import (HardcoreConfig, TruncationConfig, hardcore_report,
                          hardcore_rho, hardcore_tripartite_state,
                          one_particle_tail, rapidity_scalar, resolve_n_max,
                          rob_weight, rrbar_bands, rrbar_block,
                          rrbar_block_basis, rrbar_block_constructive,
                          rrbar_block_diagonals, rrbar_mirsky_bound,
                          scalar_closed_rho, scalar_constructive_measures,
                          scalar_entropies, scalar_negativity_AR,
                          scalar_negativity_ARbar, scalar_negativity_RRbar,
                          scalar_one_particle, scalar_report,
                          scalar_tripartite_state, scalar_vacuum, vacuum_tail)

A, R, B = Subsystem.ALICE, Subsystem.ROB, Subsystem.ANTIROB
CFG = TruncationConfig()
R_HALF = math.atanh(0.5)  # tanh r = 1/2
PROBE = (0.25, 0.5, 1.0, 1.5)


# ---------------------------------------------------------------------------
# rapidity and truncation
# ---------------------------------------------------------------------------

def test_rapidity_scalar():
    assert rapidity_scalar(0.0).r == 0.0
    assert abs(rapidity_scalar(math.tanh(1.0)).r - 1.0) < 1e-14
    assert abs(rapidity_scalar(0.5).r - 0.5493061443340549) < 1e-15
    assert rapidity_scalar(0.3).field_kind is FieldKind.SCALAR
    with pytest.raises(ValueError):
        rapidity_scalar(1.0)
    with pytest.raises(ValueError):
        rapidity_scalar(-0.2)


def test_adaptive_cutoff_grows_with_acceleration():
    cuts = [resolve_n_max(r, CFG) for r in PROBE]
    assert all(np.diff(cuts) > 0)
    for r, n in zip(PROBE, cuts):
        x = math.tanh(r) ** 2
        assert max(vacuum_tail(x, n), one_particle_tail(x, n)) <= CFG.tail_tol
    assert resolve_n_max(0.5, TruncationConfig(n_max=7)) == 7


def test_adaptive_cutoff_hard_cap():
    with pytest.raises(TruncationError):
        resolve_n_max(2.0, TruncationConfig(tail_tol=1e-300))


def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(n_max=0)
    with pytest.raises(ValueError):
        TruncationConfig(d_max=1)
    with pytest.raises(ValueError):
        TruncationConfig(tail_tol=0.0)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_vacuum_amplitudes():
    psi = scalar_vacuum(0.0, CFG)
    assert psi.amplitude((0, 0)) == 1.0
    psi = scalar_vacuum(R_HALF, CFG)
    ch = math.cosh(R_HALF)
    assert abs(ch - math.sqrt(4 / 3)) < 1e-14
    n_max = resolve_n_max(R_HALF, CFG)
    for n in range(n_max):
        ratio = psi.amplitude((n + 1, n + 1)) / psi.amplitude((n, n))
        assert abs(ratio - 0.5) < 1e-13
    assert abs(psi.amplitude((0, 0)) - 1 / ch) < 1e-14
    assert abs(psi.norm2 + psi.trace_deficit - 1.0) < 1e-13


def test_one_particle_amplitudes():
    psi = scalar_one_particle(0.0, CFG)
    assert psi.amplitude((1, 0)) == 1.0
    psi = scalar_one_particle(R_HALF, CFG)
    assert abs(psi.amplitude((1, 0)) - 0.75) < 1e-14  # 1/cosh^2
    assert abs(psi.norm2 + psi.trace_deficit - 1.0) < 1e-13


def test_tripartite_state_norm_and_deficit():
    for r in PROBE:
        psi = scalar_tripartite_state(r, CFG)
        assert abs(psi.norm2 + psi.trace_deficit - 1.0) < 1e-12
        assert psi.trace_deficit <= CFG.tail_tol
        assert psi.subsystems == (A, R, B)


# ---------------------------------------------------------------------------
# closed matrices against the constructive route
# ---------------------------------------------------------------------------

BIPS = [(Bipartition.ALICE_ROB, (A, R)), (Bipartition.ALICE_ANTIROB, (A, B)),
        (Bipartition.ROB_ANTIROB, (R, B))]


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_closed_rho_matches_constructive(r):
    psi = scalar_tripartite_state(r, CFG)
    for bip, keep in BIPS:
        closed = scalar_closed_rho(r, CFG, bip)
        built = reduced_density_matrix(psi, keep)
        assert closed.dims == built.dims
        assert np.max(np.abs(closed.entries - built.entries)) < 1e-12
        assert abs(closed.trace_deficit - built.trace_deficit) < 1e-12


def test_closed_rho_matches_constructive_at_top_of_range():
    # the Rob-AntiRob matrix at r = 1.5 is too large to hold twice; since
    # the state provably has support only on the (n, n) and (n+1, n)
    # positions, entrywise equality of the full matrix reduces to the three
    # sub-blocks those positions span, once the support claim is asserted
    r = 1.5
    n_max = resolve_n_max(r, CFG)
    psi = scalar_tripartite_state(r, CFG)
    tensor = psi.tensor()
    d_r, d_b = tensor.shape[1], tensor.shape[2]
    flat = tensor.reshape(2, d_r * d_b)
    t, ch = math.tanh(r), math.cosh(r)
    n = np.arange(n_max + 1)
    idx_v = n * d_b + n
    idx_w = (n + 1) * d_b + n
    support = np.zeros(d_r * d_b, dtype=bool)
    support[idx_v] = True
    assert np.max(np.abs(flat[0][~support])) == 0.0
    support[:] = False
    support[idx_w] = True
    assert np.max(np.abs(flat[1][~support])) == 0.0

    closed_v = t ** (n[:, None] + n[None, :]) / (2 * ch ** 2)
    closed_w = (t ** (n[:, None] + n[None, :])
                * np.sqrt((n + 1)[:, None] * (n + 1)[None, :]) / (2 * ch ** 4))
    built_v = sum(flat[a][idx_v, None] * flat[a][None, idx_v] for a in (0, 1))
    built_w = sum(flat[a][idx_w, None] * flat[a][None, idx_w] for a in (0, 1))
    built_x = sum(flat[a][idx_v, None] * flat[a][None, idx_w] for a in (0, 1))
    assert np.max(np.abs(built_v - closed_v)) < 1e-12
    assert np.max(np.abs(built_w - closed_w)) < 1e-12
    assert np.max(np.abs(built_x)) == 0.0


def test_bell_structure_at_rest():
    rho = scalar_closed_rho(0.0, CFG, Bipartition.ALICE_ROB)
    d_r = rho.dims[1]
    idx = [0 * d_r + 0, 1 * d_r + 1]  # |0,0> and |1,1>
    sub = rho.entries[np.ix_(idx, idx)]
    assert np.allclose(sub, 0.5)
    assert abs(np.abs(rho.entries).sum() - 2.0) < 1e-14


def test_alice_rob_block_eigenvalues():
    # each 2x2 block contributes one zero and one weight
    r = 0.75
    rho = scalar_closed_rho(r, CFG, Bipartition.ALICE_ROB)
    eigs = sym_eigenvalues(rho.entries)
    x = math.tanh(r) ** 2
    ch2 = math.cosh(r) ** 2
    n_max = resolve_n_max(r, CFG)
    want = [x ** n / (2 * ch2) * (1 + (n + 1) / ch2) for n in range(n_max + 1)]
    want = np.sort(np.concatenate([want, np.zeros(rho.dim - len(want))]))[::-1]
    assert np.max(np.abs(eigs - want)) < 1e-12


def test_rrbar_reduced_rank_two():
    # rank-2 structure is cutoff independent, so a modest pinned cutoff
    # keeps the dense eigensolve small at the larger r
    for r, cfg in ((0.3, CFG), (1.0, TruncationConfig(n_max=30))):
        rho = scalar_closed_rho(r, cfg, Bipartition.ROB_ANTIROB)
        eigs = sym_eigenvalues(rho.entries)
        tol = 2 * rho.trace_deficit + 1e-12
        assert abs(eigs[0] - 0.5) < tol
        assert abs(eigs[1] - 0.5) < tol
        assert np.max(np.abs(eigs[2:])) < 1e-12


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_entropies_inertial_limit():
    ent = scalar_entropies(0.0, CFG)
    assert abs(ent.S_R - 1.0) < 1e-14
    assert ent.S_Rbar == 0.0
    assert ent.S_A == 1.0


def test_entropies_match_spectral():
    for r in PROBE:
        ent = scalar_entropies(r, CFG)
        psi = scalar_tripartite_state(r, CFG)
        s_r = von_neumann_entropy(reduced_density_matrix(psi, (R,)))
        s_b = von_neumann_entropy(reduced_density_matrix(psi, (B,)))
        assert abs(ent.S_R - s_r) < 1e-8
        assert abs(ent.S_Rbar - s_b) < 1e-8


def antirob_entropy_from_rob(r, s_rob: float) -> float:
    """AntiRob entropy from Rob's, using the weight shift q_n = p_{n+2}/tanh^2 r.

    S_Rbar = S_R / tanh^2 r + log2(1/(2 cosh^2 r)) / sinh^2 r + log2(tanh^2 r).
    Singular at r = 0, where the direct limit is 0.
    """
    if r == 0.0:
        return 0.0
    th2 = math.tanh(r) ** 2
    sh2 = math.sinh(r) ** 2
    ch2 = math.cosh(r) ** 2
    return s_rob / th2 + math.log2(1.0 / (2.0 * ch2)) / sh2 + math.log2(th2)


def test_antirob_entropy_identity():
    for r in PROBE + (2.5,):
        ent = scalar_entropies(r, CFG)
        assert abs(antirob_entropy_from_rob(r, ent.S_R) - ent.S_Rbar) < 1e-8
    assert antirob_entropy_from_rob(0.0, 1.0) == 0.0


def test_rob_weights_are_a_distribution():
    for r in (0.4, 1.2):
        x = math.tanh(r) ** 2
        total = sum(rob_weight(n, x) for n in range(4000))
        assert abs(total - 1.0) < 1e-12


def test_schmidt_duality_explicit():
    # the joint Rob-AntiRob spectrum equals Alice's, checked literally
    cfg = TruncationConfig(n_max=6)
    psi = scalar_tripartite_state(0.6, cfg)
    rho_joint = reduced_density_matrix(psi, (R, B))
    rho_alice = reduced_density_matrix(psi, (A,))
    s1 = von_neumann_entropy(rho_joint)
    s2 = von_neumann_entropy(rho_alice)
    assert abs(s1 - s2) < 1e-10
    # the closed Rob-AntiRob matrix, whose entropy no report takes, keeps
    # Alice's spectrum too
    for cap in (1, 2, 8, 16):
        for mode in HardcoreConfig.MODES:
            hc = HardcoreConfig(cap=cap, mode=mode)
            for r in (0.4, 1.1, 2.5, 4.0):
                s_joint = von_neumann_entropy(hardcore_rho(r, hc, Bipartition.ROB_ANTIROB))
                s_alice = von_neumann_entropy(
                    partial_trace(hardcore_rho(r, hc, Bipartition.ALICE_ROB), (A,)))
                assert abs(s_joint - s_alice) <= 1e-12, (cap, mode, r)
                # the reports take S_AR = S_Rbar and S_ARbar = S_R, from the
                # closed matrices and from the state's reductions alike
                psi = hardcore_tripartite_state(r, hc)
                for rho in ({bip: hardcore_rho(r, hc, bip) for bip in Bipartition},
                            {bip: reduced_density_matrix(psi, bip.kept)
                             for bip in Bipartition}):
                    ar = rho[Bipartition.ALICE_ROB]
                    arbar = rho[Bipartition.ALICE_ANTIROB]
                    s_r = von_neumann_entropy(partial_trace(ar, (R,)))
                    s_rbar = von_neumann_entropy(partial_trace(arbar, (B,)))
                    assert abs(von_neumann_entropy(ar) - s_rbar) <= 1e-12, (cap, mode, r)
                    assert abs(von_neumann_entropy(arbar) - s_r) <= 1e-12, (cap, mode, r)


def test_constructive_rejects_alice_antirob_entanglement():
    # an Alice-AntiRob Bell pair with Rob in |0>: the guard must fire
    amps = np.zeros((2, 2, 2))
    amps[0, 0, 0] = amps[1, 0, 1] = 1.0 / math.sqrt(2.0)
    basis = tuple(LabeledBasis.fock(s, 1) for s in (A, R, B))
    psi = StateVector(basis, amps.ravel())
    with pytest.raises(NotAStateError):
        scalar_constructive_measures(0.5, CFG, psi=psi)


def test_constructive_guard_fires_on_the_scalar_support():
    # psi[0, 1, 1] = psi[1, 1, 0]: Rob in |1> times an Alice-AntiRob Bell
    # pair, every amplitude on the two diagonals the oracle reads; the
    # Alice-AntiRob block pairing (0, 0) with (1, 1) has eigenvalue -1/2
    amps = np.zeros((2, 3, 2))
    amps[0, 1, 1] = amps[1, 1, 0] = 1.0 / math.sqrt(2.0)
    basis = (LabeledBasis.fock(A, 1), LabeledBasis.fock(R, 2), LabeledBasis.fock(B, 1))
    with pytest.raises(NotAStateError, match="Alice-AntiRob partial transpose"):
        scalar_constructive_measures(0.5, CFG, psi=StateVector(basis, amps.ravel()))


def test_conservation_constructive():
    for r in (0.2, 0.8, 1.4):
        got = scalar_constructive_measures(r, CFG)
        assert abs(got["I_AR"] + got["I_ARbar"] - 2.0) < 1e-8


# ---------------------------------------------------------------------------
# negativities
# ---------------------------------------------------------------------------

def test_negativity_ar_series_values():
    assert scalar_negativity_AR(0.0, CFG) == 0.5
    for r in PROBE:
        psi = scalar_tripartite_state(r, CFG)
        rho = reduced_density_matrix(psi, (A, R))
        brute = negativity(rho, R)
        assert abs(scalar_negativity_AR(r, CFG) - brute) < 1e-9


@pytest.mark.parametrize("r", [5e-324, 2.2e-224, 1e-100, 1e-77, 1e-20, 5e-9])
def test_negativity_ar_is_one_half_to_double_precision_at_tiny_r(r):
    # 1/2 - r^2 + O(r^4); the series divides by sinh^2 r, which overflows
    # its couplings below r ~ 1e-77 and underflows to 0 below r ~ 1e-162
    assert scalar_negativity_AR(r, CFG) == 0.5


def test_negativity_ar_decreasing():
    grid = np.linspace(0.0, 1.5, 40)
    vals = [scalar_negativity_AR(r, CFG) for r in grid]
    assert np.all(np.diff(vals) < 0)


def test_negativity_arbar_zero_with_psd_transpose():
    for r in PROBE + (2.0,):
        assert scalar_negativity_ARbar(r, CFG) == 0.0
        rho = scalar_closed_rho(r, CFG, Bipartition.ALICE_ANTIROB)
        eigs = sym_eigenvalues(partial_transpose(rho, B).entries)
        assert float(eigs.min()) >= -1e-12


@pytest.mark.parametrize("r", [0.5, 1.5])
def test_closed_scalar_route_makes_no_dense_eigensolve(monkeypatch, r):
    def dense(*args, **kwargs):
        raise AssertionError("the closed scalar route eigensolved a dense matrix")
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    rep = scalar_report(r, CFG, oracle=False)
    assert rep.N_ARbar == 0.0 and rep.N_RRbar > 0.0


def test_arbar_block_check_raises_on_a_negative_eigenvalue(monkeypatch):
    # inflating the root of the closed-form smaller eigenvalue pushes the
    # blocks below -1e-10: the guard must fire
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot", lambda a, b: 2.0 * hypot(a, b))
    with pytest.raises(NotAStateError, match="partial-transpose block"):
        scalar_negativity_ARbar(0.5, CFG)


def test_arbar_pt_block_determinants():
    for r in PROBE:
        t, ch = math.tanh(r), math.cosh(r)
        for n in range(resolve_n_max(r, CFG) + 1):
            pref = t ** (2 * n) / (2 * ch ** 2)
            block = pref * np.array(
                [[1.0, math.sqrt(n + 1) * t / ch],
                 [math.sqrt(n + 1) * t / ch, (n + 2) * t * t / ch ** 2]])
            assert np.linalg.det(block) >= 0.0


# ---------------------------------------------------------------------------
# Rob-AntiRob blocks
# ---------------------------------------------------------------------------

def test_block_basis_ordering():
    assert rrbar_block_basis(1) == [(0, 0)]
    assert rrbar_block_basis(2) == [(0, 1), (1, 0)]
    assert rrbar_block_basis(3) == [(0, 2), (2, 0), (1, 1)]
    assert rrbar_block_basis(4) == [(0, 3), (3, 0), (1, 2), (2, 1)]


def test_block_smallest_cases():
    ch2 = math.cosh(0.9) ** 2
    assert np.allclose(rrbar_block(0.9, 1), [[1 / (2 * ch2)]])
    m = rrbar_block(R_HALF, 2)
    assert abs(m[0, 1] - 3 / 16) < 1e-15
    assert abs(m[1, 1] - 9 / 32) < 1e-15
    eigs = sym_eigenvalues(m)
    assert abs(eigs[0] - 3 / 8) < 1e-14
    assert abs(eigs[1] + 3 / 32) < 1e-14


def test_block_inertial_limit():
    assert np.allclose(rrbar_block(0.0, 2), [[0.0, 0.0], [0.0, 0.5]])
    for d in (3, 4, 7):
        assert np.count_nonzero(rrbar_block(0.0, d)) == 0


def test_blocks_match_constructive_restriction():
    psi = scalar_tripartite_state(R_HALF, CFG)
    for d in range(1, 21):
        closed = rrbar_block(R_HALF, d)
        built = rrbar_block_constructive(psi, d)
        assert np.max(np.abs(closed - built)) < 1e-12
        e1 = sym_eigenvalues(closed)
        e2 = sym_eigenvalues(built)
        assert np.max(np.abs(e1 - e2)) < 1e-10


def test_constructive_pt_is_block_diagonal():
    # at a small explicit cutoff the whole partial transpose fits in memory:
    # entries outside the fixed-total-occupation blocks must vanish
    cfg = TruncationConfig(n_max=6)
    psi = scalar_tripartite_state(0.7, cfg)
    eta = partial_transpose(reduced_density_matrix(psi, (R, B)), B)
    d_r, d_b = eta.dims
    mask = np.zeros((d_r * d_b, d_r * d_b), dtype=bool)
    for d in range(1, d_r + d_b):
        idx = [n * d_b + m for n, m in rrbar_block_basis(d)
               if n < d_r and m < d_b]
        mask[np.ix_(idx, idx)] = True
    assert np.max(np.abs(eta.entries[~mask])) == 0.0
    # and the blockwise negativity agrees with the dense eigensolve
    dense = negativity(reduced_density_matrix(psi, (R, B)), B)
    blockwise = sum(
        -sym_eigenvalues(rrbar_block_constructive(psi, d)).clip(max=0).sum()
        for d in range(1, d_r + d_b))
    assert abs(dense - blockwise) < 1e-10


@pytest.mark.parametrize("r,n_max", [(0.1, None), (R_HALF, None), (0.9, 3),
                                     (1.2, 6), (1.5, None)])
def test_band_equals_dense_block_diagonals(r, n_max):
    psi = scalar_tripartite_state(r, TruncationConfig(n_max=n_max))
    d_r, d_b = psi.dims[1:]
    # blocks past d_r + d_b - 1 lie wholly beyond the cutoff and read 0
    bands = rrbar_bands(psi, d_r + d_b + 2)
    for d, (diag, off) in enumerate(bands, start=1):
        block = rrbar_block_constructive(psi, d)
        assert diag.tobytes() == np.diag(block).tobytes()
        assert off.tobytes() == np.diag(block, 1).tobytes()


def test_closed_diagonals_match_loop_transcription():
    for r in (0.0, R_HALF, 1.65):
        t, ch = math.tanh(r), math.cosh(r)
        for d in (1, 2, 3, 8, 57, 300):
            couplings = [t ** (d - 1) / (2 * ch ** 2) if ell % 2 else
                         math.sqrt((d - ell // 2) * (ell // 2)) * t ** (d - 2)
                         / (2 * ch ** 4) for ell in range(1, d + 1)]
            diag, off = rrbar_block_diagonals(r, d)
            assert off.tolist() == couplings[:-1]
            assert diag.tolist() == [0.0] * (d - 1) + couplings[-1:]


def _with_stray_amplitudes(psi, eps, labels):
    amps = psi.tensor().copy()
    for a, n, m in labels:
        amps[a, n, m] += eps
    flat = amps.ravel()
    return StateVector(psi.basis, flat, trace_deficit=1.0 - float(flat @ flat))


@pytest.mark.parametrize("eps,labels", [
    (1e-3, [(0, 3, 1), (0, 5, 3)]),              # offset 2, one component
    (1e-3, [(0, 1, 3), (1, 4, 6)]),              # offset -2, split: no pair
    (1e-3, [(1, 2, 6), (1, 4, 8), (0, 0, 4)]),   # offset -4, three labels
    (1e-8, [(0, 3, 1), (0, 5, 3)]),              # product below the tolerance
    (1e-3, [(0, 4, 1)]),                         # a lone label sits on the diagonal
])
def test_tridiagonality_check_matches_dense_blocks(eps, labels):
    # the check is on the support, so it is stricter than the dense blocks:
    # a pair split across Alice components, a 1e-16 product and a lone
    # label leave every block tridiagonal to 1e-14, and they raise too
    psi = _with_stray_amplitudes(
        scalar_tripartite_state(0.6, TruncationConfig(n_max=8)), eps, labels)
    with pytest.raises(NotAStateError, match="off offsets 0 and 1"):
        rrbar_bands(psi, 0)


@pytest.mark.parametrize("label", [(0, 4, 3), (1, 3, 3)])
def test_each_alice_row_keeps_to_its_own_offset(label):
    # Alice 0 on offset 1 or Alice 1 on offset 0: a support test on the
    # offsets {0, 1} alone lets either through, yet each lies off the one
    # diagonal its Alice row holds
    psi = _with_stray_amplitudes(
        scalar_tripartite_state(0.6, TruncationConfig(n_max=8)), 1e-3, [label])
    with pytest.raises(NotAStateError, match="off offsets 0 and 1"):
        rrbar_bands(psi, 0)
    with pytest.raises(NotAStateError, match="off offsets 0 and 1"):
        scalar_constructive_measures(0.6, CFG, psi=psi)


def _constructive_rrbar_negativity(psi, n_blocks):
    """Reference: negativity of blocks 1..n_blocks of the state's own
    Rob-AntiRob partial transpose, each block eigensolved."""
    return sum(negativity_from_pt_eigenvalues(tridiagonal_eigenvalues(diag, off))
               for diag, off in rrbar_bands(psi, n_blocks))


def _closed_blocks(r):
    blocks = []
    value = scalar_negativity_RRbar(r, CFG, blocks)
    return value, blocks


def _oracle_state(r):
    # the deep cutoff the report's oracle uses
    return scalar_tripartite_state(r, TruncationConfig(n_max=2 * resolve_n_max(r, CFG) + 2))


def _scaled_beyond(psi, eps, n_min=3):
    """``psi`` with its amplitudes at rob occupation >= n_min scaled by
    1 + eps, then rescaled to the original norm so it is still a state."""
    amps = psi.tensor().copy()
    amps[:, n_min:, :] *= 1.0 + eps
    amps *= math.sqrt(psi.norm2 / float(np.sum(amps * amps)))
    return StateVector(psi.basis, amps.ravel(), trace_deficit=psi.trace_deficit)


def test_oracle_rejects_off_band_amplitudes():
    psi = _with_stray_amplitudes(
        scalar_tripartite_state(0.6, TruncationConfig(n_max=8)), 1e-3,
        [(0, 3, 1), (0, 5, 3)])
    with pytest.raises(NotAStateError):
        rrbar_mirsky_bound(psi, _closed_blocks(0.6)[1])
    with pytest.raises(NotAStateError):  # the support is checked with no block too
        rrbar_mirsky_bound(psi, [])
    assert rrbar_mirsky_bound(_oracle_state(0.6), []) == 0.0


def test_oracle_reads_bands_not_dense_blocks(monkeypatch):
    def dense(*args):
        raise AssertionError("the oracle built a dense block")
    monkeypatch.setattr(scalar, "rrbar_block_constructive", dense)
    _, blocks = _closed_blocks(1.0)
    assert rrbar_mirsky_bound(_oracle_state(1.0), blocks) < 1e-9
    assert scalar_report(1.0, CFG).oracle_discrepancy <= 1e-9


def test_oracle_reads_diagonals_not_dense_reductions(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("the scalar oracle formed or eigensolved a dense matrix")
    monkeypatch.setattr(scalar, "reduced_density_matrix", dense, raising=False)
    monkeypatch.setattr(fock, "reduced_density_matrix", dense)
    monkeypatch.setattr(measures, "partial_transpose", dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    assert scalar_report(1.5, CFG).oracle_discrepancy <= 1e-9


def test_closed_blocks_are_recorded_in_order():
    value, blocks = _closed_blocks(R_HALF)
    assert value == scalar_negativity_RRbar(R_HALF, CFG)
    for d, (diag, off, eigs) in enumerate(blocks, start=1):
        want_diag, want_off = rrbar_block_diagonals(R_HALF, d)
        assert diag.tobytes() == want_diag.tobytes()
        assert off.tobytes() == want_off.tobytes()
        assert eigs.tobytes() == tridiagonal_eigenvalues(diag, off).tobytes()
    assert _closed_blocks(0.0) == (0.0, [])


@pytest.mark.parametrize("r", [0.3, 0.9, 1.5])
@pytest.mark.parametrize("eps", [1e-10, 1e-6])
def test_mirsky_bound_covers_perturbed_blocks(r, eps):
    closed, blocks = _closed_blocks(r)
    psi = _scaled_beyond(_oracle_state(r), eps)
    bound = rrbar_mirsky_bound(psi, blocks)
    assert abs(closed - _constructive_rrbar_negativity(psi, len(blocks))) <= bound
    # and it is not vacuous: far below the value, far above rounding
    assert 1e-3 * eps < bound < 1e2 * eps


def _whole_range_bands(psi, n_blocks):
    """Reference: every band of blocks 1..n_blocks from arrays as long as
    all of them, as the bands were read before they were read in runs."""
    v0, v1 = scalar.scalar_diagonals(psi, n_blocks)
    size = np.arange(1, n_blocks + 1)
    starts = np.cumsum(size) - size
    block, ell = np.repeat(size, size), np.arange(size.sum()) - np.repeat(starts, size)
    i = ell // 2
    a = np.where(ell % 2 == 0, v0[i] * v0[block - 1 - i],
                 v1[i] * v1[np.maximum(block - 2 - i, 0)])
    a += 0.0
    last = starts + size - 1
    diag = np.zeros(a.size)
    diag[last] = a[last]
    return [(diag[s:e], a[s:e - 1]) for s, e in zip(starts.tolist(), (last + 1).tolist())]


def _whole_range_bound(psi, blocks):
    """Reference: the Mirsky bound from every block at once, as it was
    formed before the blocks were read in runs."""
    bands = _whole_range_bands(psi, len(blocks))
    if not blocks:
        return 0.0
    diag, off, eigs = (np.concatenate(part) for part in zip(*blocks))
    built_diag, built_off = (np.concatenate(part) for part in zip(*bands))
    size = np.arange(1, len(blocks) + 1)
    starts = np.cumsum(size) - size
    has_off = np.ones(diag.size, dtype=bool)
    has_off[starts + size - 1] = False
    gap = np.abs(diag - built_diag)
    gap[has_off] += 2.0 * np.abs(off - built_off)
    dist = np.add.reduceat(gap, starts)
    straddling = np.abs(eigs + measures.NEGATIVITY_ZERO_TOL) <= np.repeat(dist, size)
    return float(dist.sum() + measures.NEGATIVITY_ZERO_TOL * np.count_nonzero(straddling))


def _assert_pieced_is_whole_range(psi, blocks):
    assert rrbar_mirsky_bound(psi, blocks).hex() == _whole_range_bound(psi, blocks).hex()
    got, want = rrbar_bands(psi, len(blocks)), _whole_range_bands(psi, len(blocks))
    assert len(got) == len(want)
    for (diag, off), (want_diag, want_off) in zip(got, want):
        assert diag.tobytes() == want_diag.tobytes()
        assert off.tobytes() == want_off.tobytes()


@pytest.mark.parametrize("r,entries", [(0.3, 325), (0.9, 4005), (1.5, 41616),
                                       (1.65, 73920)])
@pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-6])
def test_pieced_mirsky_bound_is_the_whole_range_bound(r, entries, eps):
    # past r = 0.3 the band entries outnumber _PIECE, so runs end inside
    # the block list
    _, blocks = _closed_blocks(r)
    assert sum(diag.size for diag, _, _ in blocks) == entries
    psi = _oracle_state(r)
    _assert_pieced_is_whole_range(_scaled_beyond(psi, eps) if eps else psi, blocks)


@pytest.mark.parametrize("cap", [2, 16])
@pytest.mark.parametrize("mode", HardcoreConfig.MODES)
def test_pieced_mirsky_bound_is_the_whole_range_bound_for_hardcore(cap, mode):
    hc = HardcoreConfig(cap=cap, mode=mode)
    for r in (0.4, 1.3, 6.0):
        blocks = []
        scalar.hardcore_negativity_RRbar(r, hc, blocks)
        _assert_pieced_is_whole_range(hardcore_tripartite_state(r, hc), blocks)


def test_pieced_mirsky_bound_with_runs_of_a_few_entries(monkeypatch):
    # runs of at most 5 entries: single-block runs from block 3 on
    monkeypatch.setattr(scalar, "_PIECE", 5)
    _, blocks = _closed_blocks(0.9)
    _assert_pieced_is_whole_range(_scaled_beyond(_oracle_state(0.9), 1e-6), blocks)
    _assert_pieced_is_whole_range(_oracle_state(0.9), blocks[:1])


@pytest.mark.parametrize("r", [1.0, 1.65])
def test_mirsky_bound_allocates_in_bounded_runs(r):
    # only the per-block distances span all blocks; the bands of a run
    # hold at most _PIECE entries (the whole-range bound peaks at 0.56 MB
    # at r = 1.0 and 6.7 MB at r = 1.65)
    _, blocks = _closed_blocks(r)
    deep = _oracle_state(r)
    tracemalloc.start()
    try:
        rrbar_mirsky_bound(deep, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


def test_scalar_report_peak_allocation():
    # the deep state (1.6 MB at r = 1.5) and the recorded blocks are the
    # report's largest arrays; the whole-range oracle took it to 6.5 MB
    scalar_report(1.5, CFG)  # start the pool and find dsterf first
    tracemalloc.start()
    try:
        scalar_report(1.5, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_mirsky_bound_counts_threshold_straddling():
    # block 2 of a state with amplitudes only on (0, 0) and (1, 1) is
    # [[0, c], [c, 0]], eigenvalues +-c. With c just above the zero
    # tolerance and the closed coupling just below it, the negativities
    # differ by c ~ 1e-12 although the bands differ by 1e-13: only the
    # per-eigenvalue tolerance term covers the jump
    tol = scalar.NEGATIVITY_ZERO_TOL
    s = tol + 5e-14  # c = s sqrt(1 - s^2) rounds to s
    basis = scalar_tripartite_state(0.0, TruncationConfig(n_max=2)).basis
    amps = np.zeros(tuple(b.dim for b in basis))
    amps[0, 0, 0], amps[0, 1, 1] = math.sqrt(1.0 - s * s), s
    psi = StateVector(basis, amps.ravel())
    bands = rrbar_bands(psi, 2)
    one, c = bands[0][0], float(bands[1][1][0])
    assert tol < c < tol + 1e-13
    c_closed = c - 1e-13
    blocks = [(one, np.zeros(0), one.copy()),
              (np.zeros(2), np.array([c_closed]), np.array([c_closed, -c_closed]))]
    closed = sum(negativity_from_pt_eigenvalues(e) for _, _, e in blocks)
    built = _constructive_rrbar_negativity(psi, 2)
    assert closed == 0.0 and built == c
    bound = rrbar_mirsky_bound(psi, blocks)
    assert abs(closed - built) <= bound
    assert abs(closed - built) > 2 * 1e-13  # more than the band distance


def test_oracle_catches_perturbed_deep_state(monkeypatch):
    build = scalar.scalar_tripartite_state

    def perturbed(r, cfg=CFG, renormalized=False):
        psi = build(r, cfg, renormalized)
        # only the oracle's deep state pins the cutoff
        return psi if cfg.n_max is None else _scaled_beyond(psi, 1e-6)
    monkeypatch.setattr(scalar, "scalar_tripartite_state", perturbed)
    with pytest.raises(OracleMismatchError) as err:
        scalar_report(0.9, CFG)
    assert err.value.discrepancy > 1e-9


def test_oracle_eigensolves_only_the_closed_blocks(monkeypatch):
    # every block eigensolve, on any thread, goes through linalg._solve
    solves, recorded = [], []
    solve, bound = linalg._solve, scalar.rrbar_mirsky_bound

    def counted_solve(n, diag, offdiag):
        solves.append(n)
        return solve(n, diag, offdiag)

    def recording_bound(psi, blocks):
        recorded.append(len(blocks))
        return bound(psi, blocks)
    monkeypatch.setattr(linalg, "_solve", counted_solve)
    monkeypatch.setattr(scalar, "rrbar_mirsky_bound", recording_bound)
    n_blocks = len(_closed_blocks(1.2)[1])
    alone = sorted(solves)
    solves.clear()
    scalar_report(1.2, CFG)
    assert sorted(solves) == alone
    assert recorded == [n_blocks]


def test_rrbar_negativity_series():
    assert scalar_negativity_RRbar(0.0, CFG) == 0.0
    # the first two blocks carry no negativity except 3/32 from the second
    d1 = sym_eigenvalues(rrbar_block(R_HALF, 1))
    d2 = sym_eigenvalues(rrbar_block(R_HALF, 2))
    first_two = -(d1[d1 < 0].sum() + d2[d2 < 0].sum())
    assert abs(first_two - 3 / 32) < 1e-14
    assert scalar_negativity_RRbar(R_HALF, CFG) > 3 / 32


def test_rrbar_negativity_increasing():
    grid = np.linspace(0.0, 1.5, 25)
    vals = [scalar_negativity_RRbar(r, CFG) for r in grid]
    assert np.all(np.diff(vals) > 0)


def test_rrbar_negativity_block_cap_error():
    with pytest.raises(ConvergenceError) as err:
        scalar_negativity_RRbar(3.0, TruncationConfig(d_max=40))
    assert err.value.partial_value > 0


@pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 1.5, 3.0])
def test_rrbar_row_bound_covers_the_spectrum(r):
    t, ch2 = math.tanh(r), math.cosh(r) ** 2
    for D in range(2, 81):
        radius = float(np.abs(sym_eigenvalues(rrbar_block(r, D))).max())
        assert scalar._rrbar_row_bound(t, ch2, D) >= radius * (1.0 - 1e-12), (r, D)
        assert scalar._rrbar_row_bound(t, ch2, D + 1) < scalar._rrbar_row_bound(t, ch2, D)


def _blockwise(r, n_blocks):
    """Reference: blocks 1..n_blocks, one tridiagonal_eigenvalues call each,
    summed in block order; and their spectra."""
    total, spectra = 0.0, []
    for D in range(1, n_blocks + 1):
        spectra.append(tridiagonal_eigenvalues(*rrbar_block_diagonals(r, D)))
        total += negativity_from_pt_eigenvalues(spectra[-1])
    return total, spectra


@pytest.mark.parametrize("r", [1e-12, 1e-6, 0.05, 0.3, 0.77, 1.0, 1.2, 1.5, 1.65, 1.67])
def test_rrbar_stop_drops_only_zero_blocks(r):
    value, blocks = _closed_blocks(r)
    last = len(blocks)
    assert 2 <= last <= CFG.d_max
    want, spectra = _blockwise(r, last + 5)
    assert value == want
    assert all(float(eigs.min()) >= -measures.NEGATIVITY_ZERO_TOL
               for eigs in spectra[last:])


def test_rrbar_past_d_max_raises_with_the_sum_to_d_max():
    with pytest.raises(ConvergenceError, match="d_max=400") as err:
        scalar_negativity_RRbar(1.7, CFG)
    assert err.value.partial_value == _blockwise(1.7, 400)[0]


def test_rrbar_large_d_max_takes_bounded_passes(monkeypatch):
    passes = []  # the blocks of each LAPACK pass

    def counted(blocks):
        passes.append(blocks)
        return solve_blocks(blocks)
    solve_blocks = scalar._solve_blocks
    monkeypatch.setattr(scalar, "_solve_blocks", counted)
    value = scalar_negativity_RRbar(1.7, TruncationConfig(d_max=500))
    assert [len(p) for p in passes][0] == 400 and len(passes) == 2
    assert value == _blockwise(1.7, sum(len(p) for p in passes) + 5)[0]


def test_rrbar_huge_d_max_allocates_nothing_of_its_size():
    want = scalar_negativity_RRbar(1.0, CFG)
    tracemalloc.start()
    try:
        got = scalar_negativity_RRbar(1.0, TruncationConfig(d_max=10**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2**21


@pytest.mark.parametrize("r", [19.1, 25.0, 200.0, 400.0])
def test_rrbar_names_r_where_tanh_rounds_to_one(r):
    with pytest.raises(TruncationError, match=f"r={r}"):
        scalar_negativity_RRbar(r, CFG)


@pytest.mark.parametrize("r", [14.2, 14.3, 18.0])
def test_rrbar_names_r_where_every_block_drops_below_the_tolerance(r):
    # G_2 < 1e-12 stops the sum at the 1 x 1 block, which has no negative
    # eigenvalue: the thresholded sum would read 0 for an unbounded value
    with pytest.raises(TruncationError, match=f"past the first .* r={r}"):
        scalar_negativity_RRbar(r, CFG)


def test_truncation_robustness():
    # doubling the cutoff moves nothing by more than 1e-8 at the range top
    n_max = resolve_n_max(1.5, CFG)
    n_blocks = len(_closed_blocks(1.5)[1])
    values = []
    for cut in (n_max, 2 * n_max):
        got = scalar_constructive_measures(1.5, TruncationConfig(n_max=cut))
        deep = scalar_tripartite_state(1.5, TruncationConfig(n_max=2 * cut + 2))
        got["N_RRbar"] = _constructive_rrbar_negativity(deep, n_blocks)
        values.append(got)
    near, deep = values
    assert len(near) == 6
    for key in near:
        assert abs(near[key] - deep[key]) < 1e-8


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_scalar_report_inertial_limit():
    rep = scalar_report(0.0, CFG)
    assert rep.I_AR == 2.0
    assert rep.N_AR == 0.5
    assert rep.N_ARbar == 0.0
    assert rep.N_RRbar == 0.0
    assert rep.logN_RRbar == 0.0


def test_scalar_report_oracle_agreement():
    for r in PROBE:
        rep = scalar_report(r, CFG)
        assert rep.oracle_discrepancy <= 1e-9
        assert rep.trace_deficit <= CFG.tail_tol


def test_scalar_report_skips_oracle():
    rep = scalar_report(0.5, CFG, oracle=False)
    assert math.isnan(rep.oracle_discrepancy)


def test_scalar_report_oracle_tolerance_tracks_truncation():
    # a loosened tail shifts the constructive entropies by ~tail_tol * log
    # factors; the cross-check must widen with it instead of erroring
    rep = scalar_report(0.8, TruncationConfig(tail_tol=1e-10))
    assert rep.oracle_discrepancy <= 1e-8


# ---------------------------------------------------------------------------
# hardcore bosons
# ---------------------------------------------------------------------------

def test_hardcore_config_validation():
    with pytest.raises(ValueError):
        HardcoreConfig(cap=0)
    with pytest.raises(ValueError):
        HardcoreConfig(cap=2, mode="clip")


def test_dense_rob_antirob_order_is_bounded(monkeypatch):
    # cap 62 is the largest cap whose (cap + 2)(cap + 1) is within the bound
    assert 64 * 63 <= scalar.DENSE_ORDER_MAX < 65 * 64
    HardcoreConfig(cap=62)
    with pytest.raises(ValueError, match="cap must be <= 62"):
        HardcoreConfig(cap=63)
    real_zeros = np.zeros

    def bounded_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= scalar.DENSE_ORDER_MAX ** 2, f"allocated {shape}"
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", bounded_zeros)
    # the adaptive cutoff at r = 1.5 would need a matrix of about 4.8 GB
    n_max = resolve_n_max(1.5, TruncationConfig())
    assert (n_max + 2) * (n_max + 1) > scalar.DENSE_ORDER_MAX
    with pytest.raises(TruncationError, match="order"):
        scalar_closed_rho(1.5, TruncationConfig(), Bipartition.ROB_ANTIROB)
    rho = scalar_closed_rho(1.5, TruncationConfig(n_max=62), Bipartition.ROB_ANTIROB)
    assert rho.dim == 64 * 63


def test_hardcore_state_modes():
    hc = HardcoreConfig(cap=2)
    psi = hardcore_tripartite_state(1.0, hc)
    assert abs(psi.norm2 + psi.trace_deficit - 1.0) < 1e-12
    assert psi.trace_deficit > 1e-3
    renorm = hardcore_tripartite_state(1.0, HardcoreConfig(cap=2, mode="renormalized"))
    assert abs(renorm.norm2 - 1.0) < 1e-12
    assert renorm.trace_deficit == 0.0


def test_hardcore_rho_against_constructive():
    # the closed matrices are placed from the weights in one pass, so the
    # entries at the cutoff, where a shifted index first falls off an
    # axis, are checked from the smallest cap to the largest
    for cap, mode in itertools.product((1, 3, 16, 62), HardcoreConfig.MODES):
        hc = HardcoreConfig(cap=cap, mode=mode)
        for r in (0.0, 0.9, 4.0, 10.0):
            psi = hardcore_tripartite_state(r, hc)
            for bip, keep in BIPS:
                closed = hardcore_rho(r, hc, bip)
                built = reduced_density_matrix(psi, keep)
                assert closed.dims == built.dims
                assert np.max(np.abs(closed.entries - built.entries)) < 1e-13, (
                    cap, mode, r, bip)


def test_hardcore_arbar_pt_blocks_cap_two():
    # the capped Alice-AntiRob partial transpose keeps the uncapped 2x2
    # blocks verbatim: prefactor [[1, sqrt(n+1) t/ch], [., (n+2) t^2/ch^2]]
    r = 0.8
    t, ch = math.tanh(r), math.cosh(r)
    hc = HardcoreConfig(cap=2)
    eta = partial_transpose(hardcore_rho(r, hc, Bipartition.ALICE_ANTIROB), B)
    d_b = eta.dims[1]
    want0 = np.array([[1.0, t / ch], [t / ch, 2 * t * t / ch ** 2]]) / (2 * ch ** 2)
    want1 = (np.array([[1.0, math.sqrt(2) * t / ch],
                       [math.sqrt(2) * t / ch, 3 * t * t / ch ** 2]])
             * t ** 2 / (2 * ch ** 2))
    got0 = eta.entries[np.ix_([0, d_b + 1], [0, d_b + 1])]   # {|0,0>, |1,1>}
    got1 = eta.entries[np.ix_([1, d_b + 2], [1, d_b + 2])]   # {|0,1>, |1,2>}
    assert np.max(np.abs(got0 - want0)) < 1e-14
    assert np.max(np.abs(got1 - want1)) < 1e-14
    assert np.linalg.det(want0) >= 0 and np.linalg.det(want1) >= 0


@pytest.mark.parametrize("cap", [1, 2, 3, 5])
@pytest.mark.parametrize("mode", HardcoreConfig.MODES)
def test_hardcore_arbar_negativity_vanishes(cap, mode):
    hc = HardcoreConfig(cap=cap, mode=mode)
    for r in (0.3, 0.9, 1.7, 3.0):
        rho = hardcore_rho(r, hc, Bipartition.ALICE_ANTIROB)
        eigs = sym_eigenvalues(partial_transpose(rho, B).entries)
        assert float(eigs.min()) >= -1e-12
        rep = hardcore_report(r, hc)
        assert rep.N_ARbar == 0.0


def test_hardcore_rrbar_nonmonotonic():
    hc = HardcoreConfig(cap=2)
    vals = {r: hardcore_report(r, hc, oracle=False).N_RRbar
            for r in (0.0, 0.8, 6.0)}
    assert vals[0.0] == 0.0
    assert vals[0.8] > 1e-4
    assert vals[6.0] < 1e-4


def test_hardcore_large_r_is_a_truncation_error():
    # the one-particle component keeps less than ONE_PARTICLE_MASS_FLOOR
    with pytest.raises(TruncationError, match=r"cap 2 .*r=10\.6"):
        hardcore_report(10.6, HardcoreConfig(cap=2))
    assert hardcore_report(10.5, HardcoreConfig(cap=2)).trace_deficit < 1.0


def test_hardcore_report_oracle():
    for mode in HardcoreConfig.MODES:
        rep = hardcore_report(1.2, HardcoreConfig(cap=3, mode=mode))
        assert rep.oracle_discrepancy <= 1e-9


@pytest.mark.parametrize("cap", [1, 2, 8, 16])
@pytest.mark.parametrize("mode", HardcoreConfig.MODES)
def test_hardcore_large_r_rows_finite_or_typed(cap, mode):
    # past r ~ 8.6 the kept mass is below 1e-7, so computed as 1 - deficit
    # it would be off by more than the 1e-9 trace tolerance; and once a row
    # raises TruncationError, every row at a larger r raises it too; with
    # and without the oracle, rows raise from the same r
    first_error = {1: 10.4, 2: 10.6, 8: 11.1, 16: 11.4}[cap]
    hc = HardcoreConfig(cap=cap, mode=mode)
    for oracle in (False, True):
        finite, failed_at = 0, None
        for r in np.arange(40, 250) / 10.0:
            try:
                rep = hardcore_report(r, hc, oracle=oracle)
            except TruncationError:
                failed_at = r if failed_at is None else failed_at
                continue
            assert failed_at is None, (r, oracle, failed_at)
            assert all(math.isfinite(v) and v >= 0.0
                       for v in rep.as_row()[:-1]), (r, oracle)
            finite += 1
        assert finite > 0 and failed_at == first_error, (oracle, failed_at)


@pytest.mark.parametrize("build, r", [
    pytest.param(lambda r, hc: hardcore_rho(r, hc, Bipartition.ALICE_ROB), 19.5,
                 id="rho_AR-19.5"),
    pytest.param(lambda r, hc: hardcore_rho(r, hc, Bipartition.ROB_ANTIROB), 800.0,
                 id="rho_RRbar-800"),
    pytest.param(hardcore_tripartite_state, 19.5, id="state-19.5"),
    pytest.param(hardcore_tripartite_state, 800.0, id="state-800"),
])
@pytest.mark.parametrize("mode", HardcoreConfig.MODES)
def test_builders_past_the_mass_rule_raise_a_typed_error(build, r, mode):
    # called directly, past the row rule, the builders raised a raw
    # ValueError (deficit 1) or, past r ~ 710, OverflowError from cosh r
    with pytest.raises(TruncationError, match=rf"cap 2 .*r={r}"):
        build(r, HardcoreConfig(cap=2, mode=mode))


@pytest.mark.parametrize("build", [scalar_tripartite_state, scalar_vacuum,
                                   scalar_one_particle])
def test_pinned_cutoff_state_past_float_range_is_a_typed_error(build):
    with pytest.raises(TruncationError, match=r"cap 3 .*r=720\.0"):
        build(720, TruncationConfig(n_max=3))
    with pytest.raises(TruncationError, match=r"cap 3 .*r=19\.5"):
        build(19.5, TruncationConfig(n_max=3))


@pytest.mark.parametrize("r", [19.5, 800.0])
def test_pinned_cutoff_report_at_large_r_is_a_typed_error(r):
    # the Alice-Rob tail bound divided by 1 - tanh^2 r = 0 at 19.5, and
    # cosh r overflowed at 800
    with pytest.raises(TruncationError, match=rf"r={r}"):
        scalar_report(r, TruncationConfig(n_max=3))


def test_rrbar_block_past_float_range_is_a_typed_error():
    with pytest.raises(TruncationError, match=r"r=800\.0"):
        rrbar_block_diagonals(800, 5)
    with pytest.raises(TruncationError, match=r"cosh\^4 r .*r=178\.2"):
        rrbar_block_diagonals(178.2, 5)
    diag, off = rrbar_block_diagonals(178.1, 5)
    assert np.all(np.isfinite(off)) and diag[-1] > 0.0


@pytest.mark.parametrize("cap", [2, 16])
@pytest.mark.parametrize("mode", HardcoreConfig.MODES)
def test_hardcore_report_eigensolves_only_its_rrbar_blocks(monkeypatch, cap, mode):
    # neither route reduces, partially transposes or eigensolves a dense
    # matrix, and the only eigensolves are the Rob-AntiRob blocks
    # D = 1..2 cap + 2, once each; every block eigensolve, on any thread,
    # goes through linalg._solve
    solve, orders = linalg._solve, []

    def counted(n, diag, offdiag):
        orders.append(n)
        return solve(n, diag, offdiag)

    def refused(*args, **kwargs):
        raise AssertionError("a hardcore report reduced or eigensolved a dense matrix")

    monkeypatch.setattr(linalg, "_solve", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    for module in (fock, measures, scalar):
        for name in ("partial_trace", "partial_transpose", "reduced_density_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    rep = hardcore_report(1.3, HardcoreConfig(cap=cap, mode=mode))
    assert rep.N_RRbar > 0.0 and rep.oracle_discrepancy <= 1e-9
    assert orders == list(range(1, 2 * cap + 3)), orders


def test_hardcore_oracle_catches_a_perturbed_coupling(monkeypatch):
    couplings = scalar._diagonal_couplings

    def perturbed(v0, v1, run):
        a, starts, size = couplings(v0, v1, run)
        if 4 in run:
            a[starts[4 - run.start] + 1] *= 1.0 + 1e-6  # block D = 4, position 1
        return a, starts, size

    monkeypatch.setattr(scalar, "_diagonal_couplings", perturbed)
    with pytest.raises(OracleMismatchError) as err:
        hardcore_report(0.9, HardcoreConfig(cap=2))
    assert err.value.discrepancy > 1e-9


def test_report_past_the_amplitude_budget_fails_before_the_block_sum(monkeypatch):
    # with d_max = 100000 the sum at r = 2.65 takes about a minute, and only
    # the deep state's amplitude budget refuses the row
    def refused(*args, **kwargs):
        raise AssertionError("the block sum ran before the deep state was refused")
    monkeypatch.setattr(scalar, "scalar_negativity_RRbar", refused)
    with pytest.raises(TruncationError, match=r"r=2\.65 .* > 16777216"):
        scalar_report(2.65, TruncationConfig(d_max=100000))


def test_oracle_allocation_is_bounded(monkeypatch):
    # at r = 1.5 a tail_tol of 1e-300 asks for n_max = 3498: a deep state of
    # about 780 MB, which the oracle must refuse before allocating
    real_zeros = np.zeros

    def bounded_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= scalar.DENSE_ORDER_MAX ** 2, f"allocated {shape}"
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", bounded_zeros)
    cfg = TruncationConfig(tail_tol=1e-300)
    with pytest.raises(TruncationError, match=r"r=1\.5 .* > 16777216"):
        scalar_report(1.5, cfg)
    assert scalar_report(1.5, cfg, oracle=False).N_ARbar == 0.0


@pytest.mark.parametrize("build", [scalar_constructive_measures,
                                   scalar_tripartite_state, scalar_vacuum])
def test_state_allocation_is_bounded_for_every_caller(monkeypatch, build):
    # the budget sits in the state builder, so a caller other than the
    # report cannot allocate the (2, 3500, 3499) state at n_max = 3498
    real_zeros = np.zeros

    def bounded_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= scalar.DENSE_ORDER_MAX ** 2, f"allocated {shape}"
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", bounded_zeros)
    with pytest.raises(TruncationError, match=r"r=1\.5 .* 24493000 amplitudes > 16777216"):
        build(1.5, TruncationConfig(tail_tol=1e-300))


def test_hardcore_renormalized_past_the_old_trace_failure():
    hc = HardcoreConfig(cap=8, mode="renormalized")
    rep = hardcore_report(8.6, hc)
    assert rep.trace_deficit == 0.0 and rep.oracle_discrepancy <= 1e-9
    rho = hardcore_rho(9.5, hc, Bipartition.ROB_ANTIROB)
    assert abs(np.trace(rho.entries) - 1.0) < 1e-14
    psi = hardcore_tripartite_state(9.5, hc)
    assert abs(psi.norm2 - 1.0) < 1e-14
