import math
from dataclasses import replace

import pytest

from unruh.cli import main
from unruh.fock import FieldKind
from unruh.report import CorrelationReport
from unruh.sweep import (CSV_HEADER, SweepConfig, check_report, default_checks,
                         figure_preset, format_row, format_value, read_csv_rows,
                         run_sweep)

DIRAC_SMALL = SweepConfig(field_kind=FieldKind.DIRAC, r_min=0.0,
                          r_max=math.pi / 4, steps=9)
SCALAR_SMALL = SweepConfig(field_kind=FieldKind.SCALAR, r_min=0.0, r_max=0.8,
                           steps=5)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(field_kind=FieldKind.DIRAC, r_min=-0.1, r_max=0.5)
    with pytest.raises(ValueError):
        SweepConfig(field_kind=FieldKind.DIRAC, r_max=1.0)
    with pytest.raises(ValueError):
        SweepConfig(field_kind=FieldKind.SCALAR, steps=1)
    with pytest.raises(ValueError):
        SweepConfig(field_kind=FieldKind.SCALAR, r_min=1.0, r_max=0.5)
    with pytest.raises(ValueError):
        SweepConfig(field_kind=FieldKind.HARDCORE)  # cap missing
    with pytest.raises(ValueError, match="cap"):
        SweepConfig(field_kind=FieldKind.HARDCORE, cap=0)
    with pytest.raises(ValueError):
        SweepConfig(field_kind=FieldKind.SCALAR, checks=("bogus",))


@pytest.mark.parametrize("override", [
    {"r_max": math.nan}, {"r_max": math.inf}, {"r_min": math.nan},
    {"d_max": 1}, {"tail_tol": math.nan}, {"tail_tol": 0.0},
])
def test_config_rejects_values_a_point_would_fail_on(override):
    with pytest.raises(ValueError):
        SweepConfig(field_kind=FieldKind.SCALAR, **override)


def test_grid_endpoints():
    grid = DIRAC_SMALL.grid()
    assert len(grid) == 9
    assert grid[0] == 0.0
    assert abs(grid[-1] - math.pi / 4) < 1e-15


def test_default_checks_per_field():
    assert default_checks(FieldKind.DIRAC) == ("i-conservation", "n-conservation")
    assert default_checks(FieldKind.SCALAR) == ("i-conservation", "n-arbar-zero")
    assert default_checks(FieldKind.HARDCORE) == ("n-arbar-zero",)


def test_dirac_sweep_rows():
    result = run_sweep(DIRAC_SMALL)
    assert not result.errors
    first = result.reports[0]
    assert first.I_AR == 2.0
    assert first.N_AR == 0.5
    assert first.N_ARbar == 0.0
    assert first.N_RRbar == 0.0
    for rep in result.reports:
        assert abs(rep.N_AR + rep.N_ARbar - 0.5) < 1e-10
        assert abs(rep.I_AR + rep.I_ARbar - 2.0) < 1e-10


def test_scalar_sweep_arbar_column_zero():
    result = run_sweep(replace(SCALAR_SMALL, oracle=False))
    assert not result.errors
    assert all(rep.N_ARbar == 0.0 for rep in result.reports)


def test_csv_writing_and_roundtrip(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_sweep(replace(DIRAC_SMALL, out=str(out)))
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + DIRAC_SMALL.steps
    assert "\r" not in text
    # every datum is written with 13 significant digits
    assert all(len(cell.split("e")[0].replace("-", "").replace(".", "")) == 13
               for cell in lines[1].split(","))
    rows = read_csv_rows(str(out))
    for row, rep in zip(rows, result.reports):
        for name in CorrelationReport.field_names():
            reread = format_value(row[name])
            original = format_value(getattr(rep, name))
            assert reread == original


def test_csv_schema_is_the_report_fields():
    # the header is derived from CorrelationReport; its bytes stay fixed
    assert CSV_HEADER == ("r,I_AR,I_ARbar,I_RRbar,N_AR,N_ARbar,N_RRbar,"
                          "logN_RRbar,trace_deficit,oracle_discrepancy")
    failed = format_row(0.25, None).split(",")
    assert failed == [format_value(0.25)] + ["nan"] * 9


def test_csv_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(replace(SCALAR_SMALL, out=str(a)))
    run_sweep(replace(SCALAR_SMALL, out=str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_failed_rows_become_nan(tmp_path):
    out = tmp_path / "partial.csv"
    cfg = SweepConfig(field_kind=FieldKind.SCALAR, r_min=1.2, r_max=1.4,
                      steps=3, d_max=20, oracle=False, out=str(out))
    result = run_sweep(cfg)
    assert len(result.errors) == 3
    assert all(rep is None for rep in result.reports)
    rows = out.read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "nan" for row in rows)
    # the grid value itself is still recorded
    assert float(rows[0].split(",")[0]) == 1.2


def test_check_report_passes_and_detects_faults():
    result = run_sweep(replace(DIRAC_SMALL, oracle=False))
    summary = check_report(result.ok_reports, FieldKind.DIRAC)
    assert summary.passed
    assert "I_conservation" in summary.lines[0] and "PASS" in summary.lines[0]
    # corrupt one report: conservation must fail with the injected deviation
    broken = list(result.ok_reports)
    rep = broken[3]
    broken[3] = replace(rep, N_AR=rep.N_AR + 0.01)
    summary = check_report(broken, FieldKind.DIRAC)
    assert not summary.passed
    line = [ln for ln in summary.lines if ln.startswith("N_conservation")][0]
    assert "FAIL" in line
    assert abs(float(line.split("max_dev=")[1].split()[0]) - 0.01) < 1e-6


def test_check_report_needs_reports():
    with pytest.raises(ValueError):
        check_report([], FieldKind.DIRAC)


def test_figure_presets():
    fig3 = figure_preset("fig3")
    assert fig3.field_kind is FieldKind.DIRAC
    assert abs(fig3.r_max - math.pi / 4) < 1e-15
    assert fig3.steps == 200
    fig7 = figure_preset("fig7")
    assert fig7.field_kind is FieldKind.SCALAR
    assert fig7.r_max == 1.5
    with pytest.raises(ValueError) as err:
        figure_preset("fig9")
    assert "fig2" in str(err.value)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_dirac_sweep(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["--field", "dirac", "--steps", "9", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert out.exists()
    assert "I_conservation" in captured.out and "PASS" in captured.out


def test_cli_usage_errors(capsys):
    assert main([]) == 2  # neither field nor preset
    with pytest.raises(SystemExit) as err:
        main(["--field", "tachyon"])
    assert err.value.code == 2


def test_cli_invalid_range(capsys):
    rc = main(["--field", "dirac", "--r-max", "2.0"])
    assert rc == 2


@pytest.mark.parametrize("args", [["--r-max", "nan"], ["--r-max", "inf"],
                                  ["--d-max", "1"], ["--tail-tol", "nan"]])
def test_cli_invalid_values_are_usage_errors(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    rc = main(["--field", "scalar", "--steps", "3", "--out", str(out)] + args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_hardcore_cap_past_dense_bound_is_a_usage_error(tmp_path, capsys):
    # a cap-1000 Rob-AntiRob matrix would have order 1,003,002; nothing is built
    out = tmp_path / "hc.csv"
    rc = main(["--field", "hardcore", "--cap", "1000", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: cap must be <= 62") and err.count("\n") == 1
    assert not out.exists()


def test_cli_hardcore_past_float_range_is_a_failed_row(tmp_path, capsys):
    # at r = 10.6 a cap-2 one-particle component keeps less than the floor
    out = tmp_path / "hc.csv"
    rc = main(["--field", "hardcore", "--cap", "2", "--r-min", "10.4",
               "--r-max", "10.6", "--steps", "2", "--out", str(out)])
    assert rc == 3
    assert "row 1 (r=10.6) failed: cap 2" in capsys.readouterr().err
    rows = read_csv_rows(str(out))
    assert not math.isnan(rows[0]["N_RRbar"])
    assert math.isnan(rows[1]["N_RRbar"])


def test_cli_unwritable_output(capsys):
    rc = main(["--field", "dirac", "--steps", "2",
               "--out", "/nonexistent-dir/x.csv"])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_computation_error_exit(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    rc = main(["--field", "scalar", "--r-min", "1.2", "--r-max", "1.4",
               "--steps", "3", "--d-max", "20", "--no-oracle",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "failed" in captured.err
    assert out.exists()


def test_cli_check_failure_exit(tmp_path):
    # conservation does not hold for capped bosons kept unnormalized, so
    # forcing that check must exit 1
    out = tmp_path / "hc.csv"
    rc = main(["--field", "hardcore", "--cap", "2", "--steps", "4",
               "--r-max", "1.0", "--check", "i-conservation",
               "--no-oracle", "--out", str(out)])
    assert rc == 1


def test_cli_no_oracle_emits_nan_column(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["--field", "scalar", "--steps", "3", "--r-max", "0.6",
               "--no-oracle", "--out", str(out)])
    assert rc == 0
    rows = read_csv_rows(str(out))
    assert all(math.isnan(row["oracle_discrepancy"]) for row in rows)


def test_cli_preset_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["--preset", "fig3", "--steps", "5"])
    assert rc == 0
    assert (tmp_path / "fig3.csv").exists()
