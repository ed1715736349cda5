"""The Rob-AntiRob block spectra on several threads: the same values, the
same recorded blocks and the same CSV bytes for any number of usable CPUs
and of concurrent callers, no block past the stop solved on any thread,
failures typed alike for the scalar and the hardcore sum, and a working
pool in a forked child."""

import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from unruh import linalg
from unruh.errors import ConvergenceError
from unruh.measures import negativity_from_pt_eigenvalues
from unruh.scalar import (HardcoreConfig, TruncationConfig, hardcore_negativity_RRbar,
                          hardcore_report, scalar_negativity_RRbar)
from unruh.sweep import figure_preset, run_sweep

CFG = TruncationConfig()
# no extra thread, one per usable CPU, and more shares than this machine may
# have, up to a pool wider than eight blocks
CPU_COUNTS = sorted({1, linalg._usable_cpus(), 3, 12})
_SOLVE = linalg._solve


def _closed_blocks(r):
    blocks = []
    return scalar_negativity_RRbar(r, CFG, blocks), blocks


def _block_count(blocks):
    return sum(len(run) for run, _, _ in blocks)


def _spectra(blocks):
    """Every block's descending spectrum in a record of (run, couplings,
    spectra) pieces, in order."""
    out = []
    for run, _, spectra in blocks:
        s = 0
        for D in run:
            out.append(spectra[s:s + D][::-1])
            s += D
    return out


def _piece_bytes(blocks):
    return [(run, couplings.tobytes(), spectra.tobytes()) for run, couplings, spectra in blocks]


@pytest.mark.parametrize("r", [0.5, 1.5, 1.65])
def test_block_sum_is_independent_of_cpu_count(monkeypatch, r):
    runs = []
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        runs.append(_closed_blocks(r))
    value, blocks = runs[0]
    for other, other_blocks in runs[1:]:
        assert other == value
        assert _piece_bytes(other_blocks) == _piece_bytes(blocks)


def test_block_sums_from_concurrent_callers(monkeypatch):
    # more solving threads than CPUs, callers switched often, and a pooled
    # scalar and hardcore sum in each caller
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
    hc = HardcoreConfig(cap=62)

    def sums():
        scalar_blocks, hardcore_blocks = [], []
        return (scalar_negativity_RRbar(1.5, CFG, scalar_blocks).hex(),
                _piece_bytes(scalar_blocks),
                hardcore_negativity_RRbar(1.2, hc, hardcore_blocks).hex(),
                _piece_bytes(hardcore_blocks))
    want = sums()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:
            runs = [callers.submit(sums) for _ in range(8)]
            got = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 8


def test_fig4_csv_is_independent_of_cpu_count(monkeypatch, tmp_path):
    written = []
    for cpus in (1, max(2, linalg._usable_cpus())):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"fig4_{cpus}.csv"
        run_sweep(replace(figure_preset("fig4"), out=str(out)))
        written.append(out.read_bytes())
    assert written[0] == written[1]


def _failing_at(monkeypatch, size):
    """Make LAPACK report failure on every block of order ``size``; return
    the orders of the blocks solved, a list appended to from any thread."""
    solved = []

    def failing(n, diag, offdiag):
        solved.append(n)
        return 1 if n == size else _SOLVE(n, diag, offdiag)
    monkeypatch.setattr(linalg, "_solve", failing)
    return solved


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_only_blocks_up_to_the_stop_are_solved(monkeypatch, cpus):
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    for r in (1e-9, 0.5, 1.2, 1.65):
        value, blocks = _closed_blocks(r)
        # a failure in block K + 1 would raise if it were solved
        solved = _failing_at(monkeypatch, _block_count(blocks) + 1)
        assert scalar_negativity_RRbar(r, CFG) == value
        # blocks 1..K, each once, from whichever thread solved it
        assert sorted(solved) == list(range(1, _block_count(blocks) + 1))
        monkeypatch.setattr(linalg, "_solve", _SOLVE)


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_failure_in_a_summed_block_raises(monkeypatch, cpus):
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    value, blocks = _closed_blocks(1.2)
    for failed in (_block_count(blocks), _block_count(blocks) // 2):
        _failing_at(monkeypatch, failed)
        with pytest.raises(ConvergenceError, match="dsterf failed") as err:
            scalar_negativity_RRbar(1.2, CFG)
        # the sum over the blocks before the failed one
        assert err.value.partial_value == sum(
            negativity_from_pt_eigenvalues(eigs) for eigs in _spectra(blocks)[:failed - 1])


@pytest.mark.parametrize("cpus", CPU_COUNTS)
@pytest.mark.parametrize("cap", [2, 62])  # cap 62 sums enough blocks for the pool
@pytest.mark.parametrize("mode", HardcoreConfig.MODES)
def test_failure_in_a_hardcore_block_raises_as_in_the_scalar_sum(monkeypatch, cpus,
                                                                 cap, mode):
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    hc = HardcoreConfig(cap=cap, mode=mode)
    blocks = []
    hardcore_negativity_RRbar(1.2, hc, blocks)
    for failed in (_block_count(blocks), _block_count(blocks) // 2):
        _failing_at(monkeypatch, failed)
        with pytest.raises(ConvergenceError,
                           match=r"block sum at r=1\.2: LAPACK dsterf failed") as err:
            hardcore_negativity_RRbar(1.2, hc)
        # the sum over the blocks before the failed one
        assert err.value.partial_value == sum(
            negativity_from_pt_eigenvalues(eigs) for eigs in _spectra(blocks)[:failed - 1])
        with pytest.raises(ConvergenceError, match="dsterf failed"):
            hardcore_report(1.2, hc)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_computes_a_block_sum(monkeypatch):
    # at least one pool thread in the parent, which the child does not have
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
    want = scalar_negativity_RRbar(1.5, CFG)
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: writer.send(scalar_negativity_RRbar(1.5, CFG)))
    child.start()
    try:
        got = reader.recv() if reader.poll(60) else None
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
    assert got == want
    assert child.exitcode == 0
