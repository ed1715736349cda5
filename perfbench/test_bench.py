"""Tests of the benchmark's own arithmetic; they need no `unruh`.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
from types import SimpleNamespace

import pytest

from checks import COLUMNS, p90, row_faults, sweep_faults
from run import END_TO_END_UNITS, PER_LAYER_UNITS
from spans import Tracer, covered, layer_metrics, self_times
from sweeps import FirstRowDone, RowRecorder
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

# a Dirac row at r = 0.3 that obeys both conservation laws
DIRAC_ROW = (0.3, 1.8, 0.2, 0.25, 0.45, 0.05, 0.12, 0.3, 0.0, 1e-14)


def test_self_time_of_nested_spans():
    t = Tracer()
    root = t.add("unruh.cli.main", 0.0, 10.0)
    a = t.add("unruh.sweep.run_sweep", 1.0, 4.0, parent=root)
    t.add("unruh.linalg.sym_eigenvalues", 2.0, 3.0, parent=a)
    t.add("unruh.sweep.write_csv", 5.0, 9.0, parent=root)
    assert self_times(t) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(t)) == 10.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    t = Tracer()
    root = t.add("unruh.cli.main", 0.0, 10.0)
    t.add("unruh.sweep.run_sweep", 1.0, 4.0, parent=root)
    t.add("unruh.sweep.write_csv", 3.0, 6.0, parent=root)
    t.add("unruh.sweep.check_report", 9.0, 12.0, parent=root)
    assert self_times(t)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0


def test_wrapped_calls_nest_and_attribute_to_layers():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    jacobi = t.wrap(lambda m: [1.0] * m, "unruh.linalg.jacobi_eigenvalues")
    eigs = t.wrap(lambda m, method: jacobi(m) if method == "jacobi" else [0.0] * m,
                  "unruh.linalg.sym_eigenvalues")
    measure = t.wrap(lambda: eigs(3, "jacobi") + eigs(4, "lapack"),
                     "unruh.measures.von_neumann_entropy")
    measure()
    assert list(t.parent) == [-1, 0, 1, 0]
    m = layer_metrics(t)
    assert m["linalg.jacobi_calls"] == 1
    assert m["linalg.dense_calls"] == 1 and m["linalg.dense_ops"] == 4 ** 3
    assert m["measures.calls"] == 1
    total = m["linalg.self_s"] + m["measures.s"]
    assert total == t.end[0] - t.start[0]


def test_p90_is_a_sample_and_reports_its_count():
    assert p90(range(1, 101)) == (90, 100)
    assert p90([7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]) == (9.0, 10)
    assert p90([0.5]) == (0.5, 1)
    assert p90(range(1, 151)) == (135, 150)
    with pytest.raises(ValueError):
        p90([])


def test_reference_row_passes_and_a_perturbed_one_fails():
    assert row_faults(DIRAC_ROW, "dirac", 1e-10, reference=DIRAC_ROW) == []
    bumped = list(DIRAC_ROW)
    bumped[COLUMNS.index("N_RRbar")] += 2e-12
    faults = row_faults(tuple(bumped), "dirac", 1e-10, reference=DIRAC_ROW)
    assert len(faults) == 1 and "N_RRbar" in faults[0]


def test_row_faults_catch_missing_rows_broken_laws_and_oracle_gaps():
    assert row_faults(None, "dirac", 1e-10)
    broken = list(DIRAC_ROW)
    broken[COLUMNS.index("I_ARbar")] += 1e-6
    assert "I_AR + I_ARbar = 2" in row_faults(tuple(broken), "dirac", 1e-10)[0]
    loose = DIRAC_ROW[:-1] + (1e-8,)
    assert row_faults(loose, "dirac", 1e-10)
    assert row_faults(DIRAC_ROW[:-1] + (math.nan,), "dirac", None) == []


def _fake_sweep(rows):
    reports = [None if r is None else SimpleNamespace(as_row=lambda r=r: r) for r in rows]
    csv_rows = [{"I_AR": math.nan if r is None else r[1]} for r in rows]
    return SimpleNamespace(reports=[reports], csv_rows=[csv_rows], exit_codes=[0], log="")


def test_a_perturbed_row_counts_as_failed_in_its_sweep():
    workload = SimpleNamespace(field="dirac", oracle=True, steps=3)
    reference = [[DIRAC_ROW] * 3]
    assert sweep_faults(workload, _fake_sweep([DIRAC_ROW] * 3), reference) == (0, [])
    bumped = list(DIRAC_ROW)
    bumped[COLUMNS.index("I_RRbar")] *= 1.0 + 1e-9
    failed, reasons = sweep_faults(
        workload, _fake_sweep([DIRAC_ROW, tuple(bumped), DIRAC_ROW]), reference)
    assert failed == 1 and "row 1" in reasons[0]
    failed, _ = sweep_faults(workload, _fake_sweep([DIRAC_ROW, None]), reference)
    assert failed == 2  # one row raised, one never computed


def test_probe_recorder_stops_at_the_first_row_with_positive_r():
    report = lambda r: SimpleNamespace(r=r)  # noqa: E731
    sweep = SimpleNamespace(dirac_report=report)
    with RowRecorder(sweep, stop_at_positive_r=True) as rec:
        with pytest.raises(FirstRowDone):
            for r in (0.0, 0.1, 0.2):
                sweep.dirac_report(r)
    assert [rep.r for _, rep in rec.rows] == [0.0, 0.1]
    assert sweep.dirac_report is report


def test_seed_zero_is_the_preset_grid_and_other_seeds_stay_in_range():
    assert WORKLOADS["scalar_fig4"].argvs(0) == [["--preset", "fig4"]]
    for w in WORKLOADS.values():
        assert w.argvs(0) == [list(a) for a in w.sweeps]
        for seed in range(1, 20):
            lo, hi = w.shifted_range(seed)
            assert w.r_min <= lo < hi <= w.r_max
            assert w.argvs(seed) == w.argvs(seed)
        assert w.shifted_range(1) != w.shifted_range(2)


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
