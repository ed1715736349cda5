"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured worst case.

Criterion 3 is known failing and kept as stated: it pins the Dirac
Rob-AntiRob negativity to a reference closed form whose leading term,
sin(2r)/4 halved, is inconsistent with the partial-transpose spectrum that
same reference derives it from. The spectrum itself is verified here
(criterion 4 and test_dirac.py) and the spectrum-consistent closed form is
verified at 1e-10 in test_dirac.py::test_closed_negativities.
"""

import math
from dataclasses import replace

import numpy as np

from unruh.dirac import (dirac_closed_rho, dirac_closed_spectrum,
                         dirac_constructive_measures, dirac_tripartite_state)
from unruh.fock import (Bipartition, Subsystem, density_from_state,
                        partial_trace, partial_transpose,
                        reduced_density_matrix)
from unruh.linalg import sym_eigenvalues
from unruh.measures import (log_negativity_from_negativity, negativity,
                            von_neumann_entropy)
from unruh.scalar import (HardcoreConfig, TruncationConfig, hardcore_rho,
                          resolve_n_max, rrbar_block,
                          rrbar_block_constructive, scalar_closed_rho,
                          scalar_entropies, scalar_negativity_AR,
                          scalar_negativity_ARbar, scalar_negativity_RRbar,
                          scalar_tripartite_state)
from unruh.sweep import figure_preset, run_sweep

A, R, B = Subsystem.ALICE, Subsystem.ROB, Subsystem.ANTIROB
DIRAC_GRID = np.linspace(0.0, math.pi / 4, 50)
SCALAR_PROBE = (0.25, 0.5, 1.0, 1.5)
CFG = TruncationConfig()


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def test_criterion_01_dirac_negativity_closed_forms_and_tradeoff():
    worst_ar = worst_ab = worst_sum = 0.0
    for r in DIRAC_GRID:
        n_ar = negativity(dirac_closed_rho(r, Bipartition.ALICE_ROB), R)
        n_ab = negativity(dirac_closed_rho(r, Bipartition.ALICE_ANTIROB), B)
        worst_ar = max(worst_ar, abs(n_ar - math.cos(r) ** 2 / 2))
        worst_ab = max(worst_ab, abs(n_ab - math.sin(r) ** 2 / 2))
        worst_sum = max(worst_sum, abs(n_ar + n_ab - 0.5))
    ok = max(worst_ar, worst_ab, worst_sum) <= 1e-10
    report(1, ok, f"negativity closed forms + tradeoff, worst "
                  f"{max(worst_ar, worst_ab, worst_sum):.2e} (tol 1e-10)")
    assert ok


def test_criterion_02_dirac_mutual_information_conservation():
    worst = max(abs(m["I_AR"] + m["I_ARbar"] - 2.0)
                for m in (dirac_constructive_measures(r) for r in DIRAC_GRID))
    report(2, worst <= 1e-10,
           f"I_AR + I_ARbar = 2, worst deviation {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_03_dirac_rrbar_negativity_reference_form():
    def reference(r):
        u = math.sin(2 * r)
        return (u / 2 - 1 + (1 + u) * math.sqrt(1 + u * u)) / 4

    worst = 0.0
    for r in DIRAC_GRID:
        numerical = negativity(dirac_closed_rho(r, Bipartition.ROB_ANTIROB), B)
        worst = max(worst, abs(numerical - reference(r)))
    at_top = negativity(dirac_closed_rho(math.pi / 4, Bipartition.ROB_ANTIROB), B)
    pinned = (2 * math.sqrt(2) - 0.5) / 4
    ok = worst <= 1e-10 and abs(at_top - pinned) <= 1e-10
    report(3, ok, f"reference closed form, worst {worst:.2e} over the grid; "
                  f"numerical {at_top:.6f} vs pinned {pinned:.6f} at the top "
                  f"(known failing: the reference form contradicts its own "
                  f"PT spectrum; see module docstring)")
    assert worst <= 1e-10, (
        "the Rob-AntiRob negativity reference form disagrees with the "
        "numerical partial-transpose value; the spectrum-consistent closed "
        "form (first term sin(2r)/4, not sin(2r)/8) matches at 1e-10")
    assert abs(at_top - pinned) <= 1e-10


def test_criterion_04_dirac_spectra():
    worst = 0.0
    for r in DIRAC_GRID:
        for bip in Bipartition:
            eigs = sym_eigenvalues(dirac_closed_rho(r, bip).entries)
            worst = max(worst, float(np.max(np.abs(
                eigs - dirac_closed_spectrum(r, bip)))))
    rr = sym_eigenvalues(dirac_closed_rho(0.31, Bipartition.ROB_ANTIROB).entries)
    want = np.concatenate([[0.5, 0.5], np.zeros(14)])
    worst = max(worst, float(np.max(np.abs(rr - want))))
    report(4, worst <= 1e-12, f"spectra match closed lists, worst {worst:.2e} "
                              f"(tol 1e-12); Rob-AntiRob rank 2")
    assert worst <= 1e-12


def test_criterion_05_dirac_constructive_oracle_equivalence():
    pairs = [(Bipartition.ALICE_ROB, (A, R)), (Bipartition.ALICE_ANTIROB, (A, B)),
             (Bipartition.ROB_ANTIROB, (R, B))]
    worst = 0.0
    for r in DIRAC_GRID:
        rho = density_from_state(dirac_tripartite_state(r))
        for bip, keep in pairs:
            diff = np.max(np.abs(partial_trace(rho, keep).entries
                                 - dirac_closed_rho(r, bip).entries))
            worst = max(worst, float(diff))
    report(5, worst <= 1e-12, f"fermionic-sign constructive build matches "
                              f"closed matrices, worst {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_06_scalar_ppt():
    worst_eig = 0.0
    for r in SCALAR_PROBE:
        assert scalar_negativity_ARbar(r, CFG) == 0.0
        rho = scalar_closed_rho(r, CFG, Bipartition.ALICE_ANTIROB)
        eigs = sym_eigenvalues(partial_transpose(rho, B).entries)
        worst_eig = min(worst_eig, float(eigs.min()))
        t, ch = math.tanh(r), math.cosh(r)
        for n in range(resolve_n_max(r, CFG) + 1):
            pref = t ** (2 * n) / (2 * ch ** 2)
            det = pref ** 2 * (t * t / ch ** 2) * ((n + 2) - (n + 1))
            assert det >= 0.0
    ok = worst_eig >= -1e-12
    report(6, ok, f"Alice-AntiRob negativity identically 0; min PT eigenvalue "
                  f"{worst_eig:.2e} (floor -1e-12); all block determinants >= 0")
    assert ok


def test_criterion_07_scalar_mutual_information_conservation():
    worst = 0.0
    for r in np.linspace(0.0, 1.5, 40):
        psi = scalar_tripartite_state(r, CFG)
        s_a = von_neumann_entropy(reduced_density_matrix(psi, (A,)))
        s_r = von_neumann_entropy(reduced_density_matrix(psi, (R,)))
        s_b = von_neumann_entropy(reduced_density_matrix(psi, (B,)))
        s_ar = von_neumann_entropy(reduced_density_matrix(psi, (A, R)))
        s_ab = von_neumann_entropy(reduced_density_matrix(psi, (A, B)))
        i_sum = (s_a + s_r - s_ar) + (s_a + s_b - s_ab)
        worst = max(worst, abs(i_sum - 2.0))
    report(7, worst <= 1e-8, f"I_AR + I_ARbar = 2 under adaptive truncation, "
                             f"worst deviation {worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_08_scalar_alice_rob_negativity():
    assert scalar_negativity_AR(0.0, CFG) == 0.5
    worst = 0.0
    for r in SCALAR_PROBE:
        psi = scalar_tripartite_state(r, CFG)
        brute = negativity(reduced_density_matrix(psi, (A, R)), R)
        worst = max(worst, abs(scalar_negativity_AR(r, CFG) - brute))
    series = [scalar_negativity_AR(r, CFG) for r in np.linspace(0, 1.5, 60)]
    decreasing = bool(np.all(np.diff(series) < 0))
    ok = worst <= 1e-9 and decreasing
    report(8, ok, f"series vs brute-force negativity, worst {worst:.2e} "
                  f"(tol 1e-9); 1/2 at rest; strictly decreasing: {decreasing}")
    assert ok


def test_criterion_09_scalar_rrbar_blocks():
    r_half = math.atanh(0.5)
    psi = scalar_tripartite_state(r_half, CFG)
    worst = 0.0
    for d in range(1, 21):
        closed = sym_eigenvalues(rrbar_block(r_half, d))
        built = sym_eigenvalues(rrbar_block_constructive(psi, d))
        worst = max(worst, float(np.max(np.abs(closed - built))))
    eig2 = sym_eigenvalues(rrbar_block(r_half, 2))
    exact = abs(eig2[-1] + 3 / 32)
    grid = figure_preset("fig6").grid()
    vals = [scalar_negativity_RRbar(r, CFG) for r in grid]
    increasing = bool(np.all(np.diff(vals) > 0))
    ok = worst <= 1e-10 and exact <= 1e-14 and increasing
    report(9, ok, f"block spectra vs constructive, worst {worst:.2e} "
                  f"(tol 1e-10); dim-2 eigenvalue off -3/32 by {exact:.2e} "
                  f"(tol 1e-14); monotone over the default grid: {increasing}")
    assert ok


def test_criterion_10_hardcore_bosons():
    worst_eig = 0.0
    for cap in (1, 2, 3, 5):
        for mode in HardcoreConfig.MODES:
            hc = HardcoreConfig(cap=cap, mode=mode)
            for r in (0.4, 1.1, 2.5):
                rho = hardcore_rho(r, hc, Bipartition.ALICE_ANTIROB)
                eigs = sym_eigenvalues(partial_transpose(rho, B).entries)
                worst_eig = min(worst_eig, float(eigs.min()))
    assert worst_eig >= -1e-12

    r = 1.3
    t, ch = math.tanh(r), math.cosh(r)
    eta = partial_transpose(
        hardcore_rho(r, HardcoreConfig(cap=2), Bipartition.ALICE_ANTIROB), B)
    d_b = eta.dims[1]
    want0 = np.array([[1.0, t / ch], [t / ch, 2 * t * t / ch ** 2]]) / (2 * ch ** 2)
    want1 = (np.array([[1.0, math.sqrt(2) * t / ch],
                       [math.sqrt(2) * t / ch, 3 * t * t / ch ** 2]])
             * t ** 2 / (2 * ch ** 2))
    block_err = max(
        float(np.max(np.abs(eta.entries[np.ix_([0, d_b + 1], [0, d_b + 1])] - want0))),
        float(np.max(np.abs(eta.entries[np.ix_([1, d_b + 2], [1, d_b + 2])] - want1))))
    assert block_err <= 1e-14

    hc = HardcoreConfig(cap=2)
    def n_rrbar(r):
        rho = hardcore_rho(r, hc, Bipartition.ROB_ANTIROB)
        return negativity(rho, B)
    at_rest = n_rrbar(0.0)
    peak = max(n_rrbar(r) for r in np.linspace(0.1, 2.0, 20))
    far = n_rrbar(6.0)
    profile_ok = at_rest == 0.0 and peak > 1e-4 and far < 1e-4
    ok = worst_eig >= -1e-12 and block_err <= 1e-14 and profile_ok
    report(10, ok, f"capped modes: Alice-AntiRob PT floor {worst_eig:.2e}; "
                   f"cap-2 blocks off by {block_err:.2e} (tol 1e-14); "
                   f"Rob-AntiRob profile 0 -> {peak:.3f} -> {far:.2e}")
    assert ok


def test_criterion_11_rrbar_growth_turns_linear():
    grid = np.linspace(1.0, 1.5, 11)
    mutual, log_neg = [], []
    for r in grid:
        ent = scalar_entropies(r, CFG)
        mutual.append(ent.S_R + ent.S_Rbar - 1.0)
        log_neg.append(log_negativity_from_negativity(
            scalar_negativity_RRbar(r, CFG)))
    ratios = []
    for series in (mutual, log_neg):
        inc = np.diff(series)
        ratios.extend(inc[1:] / inc[:-1])
    worst = max(abs(q - 1.0) for q in ratios)
    report(11, worst <= 0.1, f"increment ratios of Rob-AntiRob mutual "
                             f"information and log-negativity within "
                             f"{worst:.3f} of 1 (tol 0.1)")
    assert worst <= 0.1


def test_criterion_12_preset_determinism(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    run_sweep(replace(figure_preset("fig3"), out=str(first)))
    run_sweep(replace(figure_preset("fig3"), out=str(second)))
    identical = first.read_bytes() == second.read_bytes()
    report(12, identical, "two runs of the fig3 preset are byte-identical")
    assert identical
