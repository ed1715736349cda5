import math

import numpy as np
import pytest

from unruh.dirac import (apply_annihilation, apply_creation,
                         config_from_patterns, dirac_closed_entropies,
                         dirac_closed_measures, dirac_closed_negativity,
                         dirac_closed_pt_spectrum, dirac_closed_rho,
                         dirac_closed_spectrum, dirac_constructive_measures,
                         dirac_one_particle, dirac_report,
                         dirac_tripartite_state, dirac_vacuum, rapidity_dirac)
from unruh.fock import (Bipartition, FieldKind, Subsystem, density_from_state,
                        partial_trace, partial_transpose, reduced_density_matrix)
from unruh.linalg import sym_eigenvalues
from unruh.measures import bipartite_measures, negativity, von_neumann_entropy
from unruh.sweep import figure_preset

A, R, B = Subsystem.ALICE, Subsystem.ROB, Subsystem.ANTIROB
GRID = np.linspace(0.0, math.pi / 4, 50)


# ---------------------------------------------------------------------------
# rapidity
# ---------------------------------------------------------------------------

def test_rapidity_dirac():
    assert rapidity_dirac(0.0).r == 0.0
    assert abs(rapidity_dirac(1.0).r - math.pi / 4) < 1e-15
    assert abs(rapidity_dirac(0.5).r - 0.4636476090008061) < 1e-15
    assert rapidity_dirac(1.0).field_kind is FieldKind.DIRAC
    with pytest.raises(ValueError):
        rapidity_dirac(-0.1)
    with pytest.raises(ValueError):
        rapidity_dirac(1.01)


def test_rapidity_monotone():
    qs = np.linspace(0, 1, 20)
    rs = [rapidity_dirac(q).r for q in qs]
    assert np.all(np.diff(rs) > 0)


# ---------------------------------------------------------------------------
# anticommutation bookkeeping
# ---------------------------------------------------------------------------

def test_pair_ordering_sign():
    # the pair is "up before down": applying down then up leaves the string
    # already ordered (+1), the reversed application order costs one swap
    vac = {(): 1.0}
    down_then_up = apply_creation(apply_creation(vac, ("I", "down")), ("I", "up"))
    up_then_down = apply_creation(apply_creation(vac, ("I", "up")), ("I", "down"))
    pair = config_from_patterns("pair", "vac")
    assert down_then_up[pair] == 1.0
    assert up_then_down[pair] == -1.0


def test_cross_wedge_creation_sign():
    # an antiparticle operator crossing one particle excitation gives -1
    one = {config_from_patterns("up", "vac"): 1.0}
    out = apply_creation(one, ("IV", "down"))
    assert out[config_from_patterns("up", "down")] == -1.0
    # crossing the pair gives (+1)^2
    pair = {config_from_patterns("pair", "vac"): 1.0}
    out = apply_creation(pair, ("IV", "up"))
    assert out[config_from_patterns("pair", "up")] == 1.0


def test_double_occupation_killed():
    one = {config_from_patterns("up", "vac"): 1.0}
    assert apply_creation(one, ("I", "up")) == {}


def test_annihilation_signs():
    both = {config_from_patterns("up", "down"): 1.0}
    # the antiparticle operator sits past the particle one: one crossing
    out = apply_annihilation(both, ("IV", "down"))
    assert out[config_from_patterns("up", "vac")] == -1.0
    pair_pair = {config_from_patterns("pair", "pair"): 1.0}
    out = apply_annihilation(pair_pair, ("IV", "up"))
    assert out[config_from_patterns("pair", "down")] == 1.0
    out = apply_annihilation(pair_pair, ("IV", "down"))
    assert out[config_from_patterns("pair", "up")] == -1.0
    assert apply_annihilation({(): 1.0}, ("I", "up")) == {}


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_vacuum_amplitudes():
    psi = dirac_vacuum(0.0)
    assert psi.amplitude(("vac", "vac")) == 1.0
    assert psi.norm2 == 1.0
    psi = dirac_vacuum(math.pi / 4)
    for labels in [("vac", "vac"), ("up", "down"), ("down", "up"), ("pair", "pair")]:
        assert abs(psi.amplitude(labels) - 0.5) < 1e-15
    for r in GRID:
        assert abs(dirac_vacuum(r).norm2 - 1.0) < 1e-14


def test_one_particle_amplitudes():
    psi = dirac_one_particle(0.0, "up")
    assert psi.amplitude(("up", "vac")) == 1.0
    psi = dirac_one_particle(math.pi / 4, "down")
    assert abs(psi.amplitude(("down", "vac")) - 1 / math.sqrt(2)) < 1e-15
    assert abs(psi.amplitude(("pair", "down")) + 1 / math.sqrt(2)) < 1e-15
    for r in GRID:
        for spin in ("up", "down"):
            psi = dirac_one_particle(r, spin)
            assert abs(psi.norm2 - 1.0) < 1e-14
            sign = 1.0 if spin == "up" else -1.0
            assert abs(psi.amplitude((spin, "vac")) - math.cos(r)) < 1e-14
            assert abs(psi.amplitude(("pair", spin)) - sign * math.sin(r)) < 1e-14
    with pytest.raises(ValueError):
        dirac_one_particle(0.3, "sideways")


def test_tripartite_state():
    psi = dirac_tripartite_state(0.0)
    # the inertial limit is a plain Bell pair
    assert abs(psi.amplitude(("vac", "vac", "vac")) - 1 / math.sqrt(2)) < 1e-15
    assert abs(psi.amplitude(("up", "down", "vac")) - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(psi.amplitudes) == 2
    for r in GRID:
        assert abs(dirac_tripartite_state(r).norm2 - 1.0) < 1e-14
    alice = partial_trace(density_from_state(dirac_tripartite_state(0.37)), (A,))
    assert np.allclose(alice.entries, np.eye(2) / 2, atol=1e-15)


# ---------------------------------------------------------------------------
# closed forms against the constructive route
# ---------------------------------------------------------------------------

BIPS = [(Bipartition.ALICE_ROB, (A, R)), (Bipartition.ALICE_ANTIROB, (A, B)),
        (Bipartition.ROB_ANTIROB, (R, B))]


def test_closed_rho_matches_constructive_everywhere():
    for r in GRID:
        rho = density_from_state(dirac_tripartite_state(r))
        for bip, keep in BIPS:
            diff = np.max(np.abs(partial_trace(rho, keep).entries
                                 - dirac_closed_rho(r, bip).entries))
            assert diff < 1e-12


def test_closed_rho_inertial_limit_is_bell():
    rho = dirac_closed_rho(0.0, Bipartition.ALICE_ROB)
    nz = np.argwhere(np.abs(rho.entries) > 0)
    # Bell projector on |vac,vac> and |up,down>: indices 0 and 6
    assert set(map(tuple, nz)) == {(0, 0), (0, 6), (6, 0), (6, 6)}
    assert np.allclose(rho.entries[np.abs(rho.entries) > 0], 0.5)


def test_spectra_match_closed_lists():
    for r in GRID:
        for bip, _ in BIPS:
            eigs = sym_eigenvalues(dirac_closed_rho(r, bip).entries)
            assert np.max(np.abs(eigs - dirac_closed_spectrum(r, bip))) < 1e-12


def test_rrbar_spectrum_is_two_halves():
    want = np.zeros(16)
    want[:2] = 0.5
    for r in (0.0, 0.3, math.pi / 4):
        eigs = sym_eigenvalues(dirac_closed_rho(r, Bipartition.ROB_ANTIROB).entries)
        assert np.max(np.abs(eigs - want)) < 1e-12


def _entry_table_matrix(bases, entries):
    dims = tuple(b.dim for b in bases)
    m = np.zeros((int(np.prod(dims)), int(np.prod(dims))))
    for bra, ket, value in entries:
        i = np.ravel_multi_index(tuple(b.index(l) for b, l in zip(bases, bra)), dims)
        j = np.ravel_multi_index(tuple(b.index(l) for b, l in zip(bases, ket)), dims)
        m[i, j] += value
        if i != j:
            m[j, i] += value
    return m


def test_partial_transposes_match_entrywise_tables():
    # for a real symmetric matrix the two partial transposes coincide, so a
    # single transcription per bipartition pins the transposed entries
    from unruh.fock import LabeledBasis
    alice = LabeledBasis.qubit(A, ("vac", "up"))
    rob = LabeledBasis.dirac(R)
    antirob = LabeledBasis.dirac(B)
    for r in (0.2, 0.55, math.pi / 4):
        c, s = math.cos(r), math.sin(r)
        eta_ar = _entry_table_matrix((alice, rob), [
            (("vac", "vac"), ("vac", "vac"), c ** 4 / 2),
            (("vac", "up"), ("vac", "up"), s * s * c * c / 2),
            (("vac", "down"), ("vac", "down"), s * s * c * c / 2),
            (("vac", "pair"), ("vac", "pair"), s ** 4 / 2),
            (("vac", "down"), ("up", "vac"), c ** 3 / 2),
            (("vac", "pair"), ("up", "up"), -s * s * c / 2),
            (("up", "down"), ("up", "down"), c * c / 2),
            (("up", "pair"), ("up", "pair"), s * s / 2),
        ])
        eta_ab = _entry_table_matrix((alice, antirob), [
            (("vac", "vac"), ("vac", "vac"), c ** 4 / 2),
            (("vac", "up"), ("vac", "up"), s * s * c * c / 2),
            (("vac", "down"), ("vac", "down"), s * s * c * c / 2),
            (("vac", "pair"), ("vac", "pair"), s ** 4 / 2),
            (("vac", "down"), ("up", "pair"), -s ** 3 / 2),
            (("vac", "vac"), ("up", "up"), s * c * c / 2),
            (("up", "vac"), ("up", "vac"), c * c / 2),
            (("up", "down"), ("up", "down"), s * s / 2),
        ])
        eta_rb = _entry_table_matrix((rob, antirob), [
            (("vac", "vac"), ("vac", "vac"), c ** 4 / 2),
            (("vac", "down"), ("up", "vac"), s * c ** 3 / 2),
            (("vac", "up"), ("down", "vac"), s * c ** 3 / 2),
            (("vac", "pair"), ("pair", "vac"), s * s * c * c / 2),
            (("up", "down"), ("up", "down"), s * s * c * c / 2),
            (("up", "up"), ("down", "down"), s * s * c * c / 2),
            (("down", "up"), ("down", "up"), s * s * c * c / 2),
            (("up", "pair"), ("pair", "down"), s ** 3 * c / 2),
            (("down", "pair"), ("pair", "up"), s ** 3 * c / 2),
            (("pair", "pair"), ("pair", "pair"), s ** 4 / 2),
            (("down", "vac"), ("down", "vac"), c * c / 2),
            (("pair", "down"), ("pair", "down"), s * s / 2),
            (("down", "down"), ("pair", "vac"), -c * s / 2),
        ])
        for bip, want in ((Bipartition.ALICE_ROB, eta_ar),
                          (Bipartition.ALICE_ANTIROB, eta_ab),
                          (Bipartition.ROB_ANTIROB, eta_rb)):
            rho = dirac_closed_rho(r, bip)
            for side in rho.subsystems:
                got = partial_transpose(rho, side)
                assert np.max(np.abs(got.entries - want)) < 1e-12


def test_pt_spectra_match_closed_lists():
    for r in GRID:
        for bip, _ in BIPS:
            eta = partial_transpose(dirac_closed_rho(r, bip),
                                    bip.kept[1])
            eigs = sym_eigenvalues(eta.entries)
            assert np.max(np.abs(eigs - dirac_closed_pt_spectrum(r, bip))) < 1e-10


def test_pt_negative_branch_signs():
    # the two smallest Alice-Rob PT eigenvalues stay non-positive throughout
    for r in GRID[1:]:
        eigs = dirac_closed_pt_spectrum(r, Bipartition.ALICE_ROB)
        assert eigs[-1] < 0.0
        assert eigs[-2] <= 1e-15


def test_closed_negativities():
    for r in GRID:
        rho_ar = dirac_closed_rho(r, Bipartition.ALICE_ROB)
        rho_ab = dirac_closed_rho(r, Bipartition.ALICE_ANTIROB)
        rho_rb = dirac_closed_rho(r, Bipartition.ROB_ANTIROB)
        assert abs(negativity(rho_ar, R)
                   - dirac_closed_negativity(r, Bipartition.ALICE_ROB)) < 1e-10
        assert abs(negativity(rho_ab, B)
                   - dirac_closed_negativity(r, Bipartition.ALICE_ANTIROB)) < 1e-10
        assert abs(negativity(rho_rb, B)
                   - dirac_closed_negativity(r, Bipartition.ROB_ANTIROB)) < 1e-10


def test_negativity_tradeoff_and_monotonicity():
    n_ar = [dirac_closed_negativity(r, Bipartition.ALICE_ROB) for r in GRID]
    n_ab = [dirac_closed_negativity(r, Bipartition.ALICE_ANTIROB) for r in GRID]
    assert np.max(np.abs(np.array(n_ar) + np.array(n_ab) - 0.5)) < 1e-15
    assert np.all(np.diff(n_ar) < 0)
    assert np.all(np.diff(n_ab) > 0)


def test_rrbar_negativity_limits():
    assert dirac_closed_negativity(0.0, Bipartition.ROB_ANTIROB) == 0.0
    top = dirac_closed_negativity(math.pi / 4, Bipartition.ROB_ANTIROB)
    assert abs(top - math.sqrt(2) / 2) < 1e-15


def test_closed_entropies_match_spectral():
    for r in GRID:
        ent = dirac_closed_entropies(r)
        rho = density_from_state(dirac_tripartite_state(r))
        s_r = von_neumann_entropy(partial_trace(rho, (R,)))
        s_b = von_neumann_entropy(partial_trace(rho, (B,)))
        assert abs(ent["R"] - s_r) < 1e-12
        assert abs(ent["Rbar"] - s_b) < 1e-12


def test_complementary_entropies_of_pure_state():
    for r in (0.2, 0.6, math.pi / 4):
        rho = density_from_state(dirac_tripartite_state(r))
        pairs = [((A, R), (B,)), ((A, B), (R,)), ((R, B), (A,))]
        for keep, rest in pairs:
            s1 = von_neumann_entropy(partial_trace(rho, keep))
            s2 = von_neumann_entropy(partial_trace(rho, rest))
            assert abs(s1 - s2) < 1e-9


def test_entropy_peak_value():
    ent = dirac_closed_entropies(math.pi / 4)
    assert abs(ent["R"] - 1.8112781244591328) < 1e-12
    assert abs(ent["R"] - ent["Rbar"]) < 1e-15


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_inertial_limit():
    rep = dirac_report(0.0)
    assert rep.I_AR == 2.0
    assert rep.I_ARbar == 0.0
    assert rep.I_RRbar == 0.0
    assert rep.N_AR == 0.5
    assert rep.N_ARbar == 0.0
    assert rep.N_RRbar == 0.0
    assert rep.trace_deficit == 0.0


def test_report_oracle_agreement():
    for r in GRID[::7]:
        rep = dirac_report(r)
        assert rep.oracle_discrepancy <= 1e-10


def test_oracle_discrepancy_over_fig3_grid():
    # LAPACK on the reduced matrices leaves the routes a few ulps apart
    grid = figure_preset("fig3").grid()
    worst = max(dirac_report(min(r, math.pi / 4)).oracle_discrepancy for r in grid)
    assert worst <= 1e-13


def test_report_conservation_laws():
    reps = [dirac_report(r, oracle=False) for r in GRID]
    assert max(abs(rp.I_AR + rp.I_ARbar - 2.0) for rp in reps) < 1e-10
    assert max(abs(rp.N_AR + rp.N_ARbar - 0.5) for rp in reps) < 1e-10


def test_report_max_acceleration():
    rep = dirac_report(math.pi / 4)
    assert abs(rep.I_AR - 1.0) < 1e-12
    assert abs(rep.I_RRbar - (2 * 1.8112781244591328 - 1.0)) < 1e-12


def test_spin_choice_independence():
    def measures(r, spin):
        psi = dirac_tripartite_state(r, alice_spin=spin)
        return bipartite_measures({bip: reduced_density_matrix(psi, bip.kept)
                                   for bip in Bipartition})

    for r in GRID:
        up, down = measures(r, "up"), measures(r, "down")
        for name in ("I_AR", "I_ARbar", "I_RRbar", "N_AR", "N_ARbar", "N_RRbar"):
            assert abs(up[name] - down[name]) < 1e-12


def test_constructive_measures_standalone():
    got = dirac_constructive_measures(0.5)
    want = dirac_closed_measures(0.5)
    for key in want:
        assert abs(got[key] - want[key]) < 1e-12
