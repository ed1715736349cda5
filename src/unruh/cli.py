"""Command-line sweep driver.

Exit codes: 0 success, 1 conservation-check failure, 2 usage error or
missing LAPACK routine, 3 computation error in at least one grid row.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

from .errors import MissingLapackError
from .fock import FieldKind
from .scalar import HardcoreConfig
from .sweep import (CHECK_NAMES, PRESETS, SweepConfig, check_report,
                    figure_preset, run_sweep)

_FIELDS = {"dirac": FieldKind.DIRAC, "scalar": FieldKind.SCALAR,
           "hardcore": FieldKind.HARDCORE}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="unruh-sweep",
        description="Sweep the acceleration parameter and emit all bipartite "
                    "correlation measures as CSV.")
    p.add_argument("--field", choices=sorted(_FIELDS),
                   help="field kind (required unless --preset is given)")
    p.add_argument("--preset", choices=PRESETS,
                   help="figure preset supplying field, range and resolution")
    p.add_argument("--r-min", type=float, help="lower end of the sweep grid")
    p.add_argument("--r-max", type=float, help="upper end of the sweep grid")
    p.add_argument("--steps", type=int, help="number of grid points (>= 2)")
    p.add_argument("--cap", type=int,
                   help="occupation cap for hardcore-boson sweeps")
    p.add_argument("--hardcore-mode", choices=HardcoreConfig.MODES,
                   help="keep raw truncated coefficients or renormalize")
    p.add_argument("--tail-tol", type=float,
                   help="Fock truncation tail tolerance (default 1e-12)")
    p.add_argument("--d-max", type=int,
                   help="cap on the Rob-AntiRob block sum (default 400)")
    p.add_argument("--out", help="output CSV path (default sweep.csv, or "
                                 "<preset>.csv when --preset is given)")
    p.add_argument("--check", action="append", dest="checks", metavar="NAME",
                   choices=CHECK_NAMES + ("none",),
                   help="enable a conservation/property check (repeatable; "
                        "'none' disables all; default: the laws valid for "
                        "the field kind)")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the constructive cross-check for faster sweeps")
    return p


def config_from_args(args) -> SweepConfig:
    # assemble every override before constructing, so field-specific
    # validation sees the final values
    if args.preset is not None:
        base = figure_preset(args.preset)
        kwargs = {f.name: getattr(base, f.name) for f in fields(base)}
    elif args.field is not None:
        kwargs = {"field_kind": _FIELDS[args.field]}
        if kwargs["field_kind"] is FieldKind.DIRAC:
            kwargs.update(r_max=math.pi / 4, steps=200)
    else:
        raise ValueError("either --field or --preset is required")
    if args.field is not None:
        kwargs["field_kind"] = _FIELDS[args.field]
    for name in ("r_min", "r_max", "steps", "cap", "hardcore_mode", "tail_tol", "d_max"):
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    if args.checks is not None:
        kwargs["checks"] = () if "none" in args.checks else tuple(args.checks)
    if args.no_oracle:
        kwargs["oracle"] = False
    if args.out is not None:
        kwargs["out"] = args.out
    else:
        kwargs["out"] = "sweep.csv" if args.preset is None else f"{args.preset}.csv"
    return SweepConfig(**kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_sweep(cfg)
    except MissingLapackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
        return 2
    for idx, r, message in result.errors:
        print(f"error: row {idx} (r={r:.6g}) failed: {message}", file=sys.stderr)
    print(f"wrote {cfg.out} ({len(result.ok_reports)}/{cfg.steps} rows)")
    checks_passed = True
    if cfg.enabled_checks() and result.ok_reports:
        summary = check_report(result.ok_reports, cfg.field_kind,
                               cfg.enabled_checks())
        print(summary.text)
        checks_passed = summary.passed
    if result.errors:
        return 3
    return 0 if checks_passed else 1


if __name__ == "__main__":
    sys.exit(main())
