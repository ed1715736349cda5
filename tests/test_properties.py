"""Property tests with hypothesis over the hardcore-boson domain, its
Rob-AntiRob blocks and closed measures, the scalar Rob-AntiRob bands and
block sums, the oracle's read of the state's two diagonals against the
dense reductions, the Dirac conservation laws and the trace of partial
transposes; the profile is set in conftest.py."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from unruh.dirac import dirac_closed_rho, dirac_report  # noqa: E402
from unruh.errors import NotAStateError, TruncationError  # noqa: E402
from unruh.fock import (Bipartition, StateVector, Subsystem,  # noqa: E402
                        partial_transpose, reduced_density_matrix)
from unruh.linalg import tridiagonal_eigenvalues  # noqa: E402
from unruh.measures import (bipartite_measures, negativity,  # noqa: E402
                            negativity_from_pt_eigenvalues)
from unruh.scalar import (HardcoreConfig, TruncationConfig,  # noqa: E402
                          hardcore_closed_measures, hardcore_negativity_RRbar,
                          hardcore_report, hardcore_rho,
                          hardcore_tripartite_state, rrbar_bands,
                          rrbar_block_constructive, rrbar_block_diagonals,
                          scalar_constructive_measures, scalar_negativity_RRbar,
                          scalar_report, scalar_tripartite_state)

R = st.floats(min_value=0.0, max_value=25.0)


def _raises(r, hc, oracle) -> bool:
    """Whether the row raises TruncationError; a row that does not must be
    finite and non-negative, and any other exception fails the test."""
    try:
        rep = hardcore_report(r, hc, oracle=oracle)
    except TruncationError:
        return True
    row = rep.as_row()[:-1]  # oracle_discrepancy is NaN without the oracle
    assert all(math.isfinite(v) and v >= 0.0 for v in row), (r, row)
    return False


@given(cap=st.sampled_from((1, 2, 8, 16)), mode=st.sampled_from(HardcoreConfig.MODES),
       oracle=st.booleans(), rs=st.lists(R, min_size=2, max_size=8, unique=True))
def test_hardcore_row_is_finite_until_it_raises_for_good(cap, mode, oracle, rs):
    hc = HardcoreConfig(cap=cap, mode=mode)
    raised = [_raises(r, hc, oracle) for r in sorted(rs)]
    assert raised == sorted(raised), sorted(rs)


@given(cap=st.sampled_from((1, 2, 8, 16)), mode=st.sampled_from(HardcoreConfig.MODES),
       r=st.floats(min_value=0.0, max_value=10.0))
def test_hardcore_block_negativity_is_the_dense_one(cap, mode, r):
    hc = HardcoreConfig(cap=cap, mode=mode)
    rep = hardcore_report(r, hc)
    dense = negativity(hardcore_rho(r, hc, Bipartition.ROB_ANTIROB), Subsystem.ANTIROB)
    assert abs(rep.N_RRbar - dense) <= 1e-12, (rep.N_RRbar, dense)
    assert rep.oracle_discrepancy <= 1e-9


@given(r=st.floats(min_value=0.0, max_value=1.65), n_max=st.integers(1, 40),
       data=st.data())
def test_table_bands_are_the_dense_bands_and_reject_a_stray_amplitude(r, n_max, data):
    psi = scalar_tripartite_state(r, TruncationConfig(n_max=n_max))
    d_r, d_b = psi.dims[1:]
    # blocks past d_r + d_b - 1 lie wholly beyond the cutoff and read 0
    for d, (diag, off) in enumerate(rrbar_bands(psi, d_r + d_b + 2), start=1):
        block = rrbar_block_constructive(psi, d)
        assert diag.tobytes() == np.diag(block).tobytes(), (d, r, n_max)
        assert off.tobytes() == np.diag(block, 1).tobytes(), (d, r, n_max)
    # one amplitude anywhere off the offsets n - m in {0, 1}
    a = data.draw(st.integers(0, 1))
    n = data.draw(st.integers(0, d_r - 1))
    m = data.draw(st.integers(0, d_b - 1).filter(lambda m: n - m not in (0, 1)))
    eps = data.draw(st.floats(min_value=-1e-3, max_value=1e-3).filter(bool))
    amps = psi.tensor().copy()
    amps[a, n, m] = eps
    amps *= math.sqrt(psi.norm2 / float(np.sum(amps * amps)))  # still a state
    stray = StateVector(psi.basis, amps.ravel(), trace_deficit=psi.trace_deficit)
    with pytest.raises(NotAStateError, match="off offsets 0 and 1"):
        rrbar_bands(stray, 0)


def _outcome(measures, *args):
    """The measures, or None where they raise ``TruncationError``."""
    try:
        return measures(*args)
    except TruncationError:
        return None


@given(cap=st.sampled_from((1, 2, 8, 16, 62)), mode=st.sampled_from(HardcoreConfig.MODES),
       r=st.floats(min_value=0.0, max_value=10.0) | st.floats(min_value=10.0, max_value=12.0))
def test_hardcore_closed_measures_are_the_dense_ones(cap, mode, r):
    # the weights replace bipartite_measures over the closed matrices, which
    # stay the reference; past the mass rule (from r = 10.4 at cap 1) both
    # raise
    hc = HardcoreConfig(cap=cap, mode=mode)
    got = _outcome(hardcore_closed_measures, r, hc)
    want = _outcome(lambda: bipartite_measures({bip: hardcore_rho(r, hc, bip) for bip in
                                                (Bipartition.ALICE_ROB,
                                                 Bipartition.ALICE_ANTIROB)}))
    assert (got is None) == (want is None), (r, got, want)
    if got is not None:
        assert got.keys() == want.keys()
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-13, (key, got[key], want[key])


def _dense_measures(psi):
    """The reference five measures: dense reductions of ``psi``, eigensolved."""
    return bipartite_measures({bip: reduced_density_matrix(psi, bip.kept) for bip in
                               (Bipartition.ALICE_ROB, Bipartition.ALICE_ANTIROB)})


def _assert_diagonal_read_is_dense(r, cfg, psi):
    got = scalar_constructive_measures(r, cfg, psi)
    want = _dense_measures(psi)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-14, (key, got[key], want[key])


@given(r=st.floats(min_value=0.0, max_value=1.65), n_max=st.integers(1, 40))
def test_scalar_diagonal_read_is_the_dense_oracle(r, n_max):
    cfg = TruncationConfig(n_max=n_max)
    _assert_diagonal_read_is_dense(r, cfg, scalar_tripartite_state(r, cfg))


@given(cap=st.sampled_from((1, 2, 8, 16)), mode=st.sampled_from(HardcoreConfig.MODES),
       r=st.floats(min_value=0.0, max_value=10.0))
def test_hardcore_diagonal_read_is_the_dense_oracle(cap, mode, r):
    psi = hardcore_tripartite_state(r, HardcoreConfig(cap=cap, mode=mode))
    _assert_diagonal_read_is_dense(r, TruncationConfig(n_max=cap), psi)
    # the hardcore blocks run to 2 cap + 2
    for d, (diag, off) in enumerate(rrbar_bands(psi, 2 * cap + 2), start=1):
        block = rrbar_block_constructive(psi, d)
        assert diag.tobytes() == np.diag(block).tobytes(), (d, cap, mode, r)
        assert off.tobytes() == np.diag(block, 1).tobytes(), (d, cap, mode, r)


@settings(max_examples=20)
@given(r=st.floats(min_value=0.0, max_value=1.65, exclude_min=True))
def test_scalar_row_keeps_its_laws_and_n_rrbar_rises(r):
    rep = scalar_report(r)
    assert rep.oracle_discrepancy <= 1e-9, (r, rep.oracle_discrepancy)
    assert rep.N_ARbar == 0.0
    assert abs(rep.I_AR + rep.I_ARbar - 2.0) <= 1e-8, (r, rep.I_AR, rep.I_ARbar)
    if r + 0.01 <= 1.65:
        assert scalar_negativity_RRbar(r + 0.01) > rep.N_RRbar, r


def _per_block(r, n_blocks, cap=None, renormalized=False):
    """Reference: the per-block loop the flat block sum replaced. Each of
    blocks 1..n_blocks is built alone, cut past the occupation ``cap`` and
    divided by the kept mass (for a hardcore field), solved by one
    tridiagonal_eigenvalues call and summed in block order."""
    bands = [rrbar_block_diagonals(r, d) for d in range(1, n_blocks + 1)]
    mass = sum(float(diag[-1]) for diag, _ in bands) if renormalized else 1.0
    total, blocks = 0.0, []
    for d, (diag, off) in enumerate(bands, start=1):
        if cap is not None:
            off[:max(0, 2 * (d - 1 - cap) - 1)] = 0.0
        diag, off = diag / mass, off / mass
        eigs = tridiagonal_eigenvalues(diag, off)
        blocks.append((diag, off, eigs))
        total += negativity_from_pt_eigenvalues(eigs)
    return total, blocks


def _assert_bitwise(value, blocks, want, want_blocks):
    assert value.hex() == want.hex(), (value, want)
    assert len(blocks) == len(want_blocks)
    for d, (got, ref) in enumerate(zip(blocks, want_blocks), start=1):
        assert [x.tobytes() for x in got] == [x.tobytes() for x in ref], d


@given(cap=st.sampled_from((1, 2, 8, 16, 62)), mode=st.sampled_from(HardcoreConfig.MODES),
       r=st.floats(min_value=0.0, max_value=6.0))
def test_hardcore_block_sum_is_the_per_block_loop(cap, mode, r):
    # cap 62 sums enough blocks to run on the thread pool
    blocks = []
    value = hardcore_negativity_RRbar(r, HardcoreConfig(cap=cap, mode=mode), blocks)
    _assert_bitwise(value, blocks, *_per_block(r, 2 * cap + 2, cap, mode == "renormalized"))


@settings(max_examples=25)
@given(r=st.floats(min_value=0.0, max_value=1.65, exclude_min=True))
def test_scalar_block_sum_is_the_per_block_loop(r):
    blocks = []
    value = scalar_negativity_RRbar(r, TruncationConfig(), blocks)
    _assert_bitwise(value, blocks, *_per_block(r, len(blocks)))


@given(r=st.floats(min_value=0.0, max_value=math.pi / 4))
def test_dirac_row_keeps_its_conservation_laws(r):
    rep = dirac_report(r)
    assert abs(rep.I_AR + rep.I_ARbar - 2.0) <= 1e-10, (r, rep.I_AR, rep.I_ARbar)
    assert abs(rep.N_AR + rep.N_ARbar - 0.5) <= 1e-10, (r, rep.N_AR, rep.N_ARbar)


def _assert_partial_transposes_keep_the_trace(rho):
    for party in rho.subsystems:
        eta = partial_transpose(rho, party)
        assert np.trace(eta.entries) == np.trace(rho.entries), party
        assert eta.trace_deficit == rho.trace_deficit


@given(r=st.floats(min_value=0.0, max_value=math.pi / 4),
       bipartition=st.sampled_from(tuple(Bipartition)))
def test_dirac_partial_transposes_keep_the_trace(r, bipartition):
    _assert_partial_transposes_keep_the_trace(dirac_closed_rho(r, bipartition))


@given(cap=st.sampled_from((1, 2, 8, 16)), mode=st.sampled_from(HardcoreConfig.MODES),
       r=st.floats(min_value=0.0, max_value=10.0),
       bipartition=st.sampled_from(tuple(Bipartition)))
def test_hardcore_partial_transposes_keep_the_trace(cap, mode, r, bipartition):
    _assert_partial_transposes_keep_the_trace(
        hardcore_rho(r, HardcoreConfig(cap=cap, mode=mode), bipartition))
