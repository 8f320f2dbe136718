"""Command-line surface tying the library together.

Subcommands
-----------
table1    reproduce the embedded log-E reference table with its a_1 columns
          (table1.csv, always with the a_1 columns, empty where no triple
          exists) and write table1_diff.json against the references
verify    one verification report over a certified flow case (m1,
          m2-special): per category the max residual, its tolerance and
          the abscissa where it peaked; stderr names each failing one
mc        Monte Carlo gap curves with analytic oracle column for M=1
gap       single-point theta=2 Muttalib-Borodin Fredholm evaluation
ode       trajectory export as CSV (columns: s, re/im of every variable,
          logE, res_* columns, one per first integral); the flow launches
          at nu=(0,0) and (0,-1/2,0) only and refuses every other nu
sigma     verify's resolvent-jet residuals at given abscissas, nu=(0,-1/2,0)
fit       tail fit from the (r, logE) first two columns of a CSV, such as
          table1.csv; a first line that starts with a letter is a header
indicial  small-s exponent classification for an M=2 index pair

mc, ode and indicial take ``--nu nu_1 ... nu_M``: nu_0 = 0, M their count.

Exit codes: 0 success; 1 a numerical refusal or failed check
(NonConvergedError, FlowError, FloatingPointError, LinAlgError, or a
verification category out of tolerance); 2 usage or validation error
(ValueError, OSError).  ``main`` alone maps an exception to its code and
prints one ``error: ...`` line on stderr.  The reports that table1, verify
and mc write back acceptance criteria 1-6 and 8.  All numeric output uses
17-significant-digit round-trip formatting; CSV is comma-separated with '.'
decimals and LF line endings.  Commands that write files also write a JSON
run manifest next to them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
# borodin_kernel_matrix and fredholm_det stay bound here for perfbench to wrap
from .kernels import (HardEdgeParams, MBParams,  # noqa: F401
                      borodin_kernel_matrix)
from .fredholm import (fredholm_det, gap_probability_hardedge,  # noqa: F401
                       gap_probability_mb, mb_logdet_column, NonConvergedError)
from . import hamiltonian_flow as flow
from .asymptotics import (A1_PREDICTED, extrapolate_a1, fit_tail,
                          indicial_exponents, local_triples)
from .ginibre_mc import (McConfig, sample_min_singular_sq, empirical_gap,
                         save_samples, _checked_s_grid)
from .reference_data import TABLE1
from .verification import (CASES, LAUNCH_S, TOLERANCES, integrate_case,
                           jet_residuals, verify)

EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE = 0, 1, 2


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_manifest(out_dir: Path, command: str, params: dict, outputs: list,
                    seed=None, diagnostics=None) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "tool_version": __version__,
        "seed": seed,
        "timestamp_unix": time.time(),
        "outputs": [str(p) for p in outputs],
        "diagnostics": diagnostics,
    }
    path = out_dir / f"{command}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_table1(args) -> int:
    r_values = list(range(args.r_min, args.r_max + 1))
    if not r_values or r_values[0] < 1:
        raise ValueError("need 1 <= r_min <= r_max")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    logE = {0: {}, 1: {}}
    failures = []
    for c in (0, 1):
        mb = MBParams(c=float(c))
        coarse = mb_logdet_column(mb, r_values, args.nodes)
        fine = mb_logdet_column(mb, r_values, 2 * args.nodes)
        for r, v1, v2 in zip(r_values, coarse, fine):
            refused = next((v for v in (v1, v2)
                            if isinstance(v, FloatingPointError)), None)
            if refused is None:
                logE[c][r] = (v2, abs(v2 - v1))
            else:
                failures.append({"c": c, "r": r, "error": str(refused)})
                logE[c][r] = (math.nan, math.nan)
    a1, ext = {}, {}
    for c in (0, 1):
        by_r = {r: v for r, (v, _) in logE[c].items() if math.isfinite(v)}
        # a triple is centred at every r whose neighbours both solved
        centers = [r for r in r_values[1:-1] if {r - 1, r, r + 1} <= by_r.keys()]
        a1s = local_triples(by_r, centers)[:, 0].tolist()
        a1[c] = dict(zip(centers, a1s))
        ext[c] = extrapolate_a1(centers, a1s) if len(centers) >= 2 else None
    csv_path = out_dir / "table1.csv"
    with csv_path.open("w", newline="") as fh:
        fh.write("r,logE_c0,a1_c0,logE_c1,a1_c1\n")
        for r in r_values:
            fh.write(",".join([str(r), _fmt(logE[0][r][0]), _fmt(a1[0].get(r)),
                               _fmt(logE[1][r][0]), _fmt(a1[1].get(r))]) + "\n")
    diff = {"failures": failures, "extrapolated_a1": ext,
            "predicted_abs_a1": A1_PREDICTED, "cells": []}
    for c in (0, 1):
        for r in r_values:
            if r in TABLE1[c] and math.isfinite(logE[c][r][0]):
                ref_le, ref_a1 = TABLE1[c][r]
                entry = {"c": c, "r": r, "logE": logE[c][r][0],
                         "logE_ref": ref_le,
                         "logE_abs_diff": abs(logE[c][r][0] - ref_le),
                         "est_error": logE[c][r][1]}
                if r in a1[c]:
                    entry["a1"] = a1[c][r]
                    entry["a1_ref"] = ref_a1
                    entry["a1_abs_diff"] = abs(a1[c][r] - ref_a1)
                diff["cells"].append(entry)
    json_path = out_dir / "table1_diff.json"
    json_path.write_text(json.dumps(diff, indent=2) + "\n")
    _write_manifest(out_dir, "table1",
                    {"nodes": args.nodes, "r_min": args.r_min,
                     "r_max": args.r_max}, [csv_path, json_path])
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# perfbench reads the tolerances under this name
_VERIFY_TOL = TOLERANCES


def cmd_verify(args) -> int:
    checks = verify(integrate_case(args.case, args.s_max, args.tol))
    report = {"case": args.case, "s_max": args.s_max, "tol": args.tol,
              "categories": {
                  name: {"max_residual": c.max_residual,
                         "tolerance": c.tolerance, "worst_s": c.worst_s,
                         "refused": c.refused, "pass": c.ok}
                  for name, c in checks.items()}}
    failed = [f"{name} refused at s={c.worst_s:g}: {c.refused}" if c.refused
              else f"{name} {c.max_residual:.3e} > {c.tolerance:.1e} at s={c.worst_s:g}"
              for name, c in checks.items() if not c.ok]
    report["pass"] = not failed
    text = json.dumps(report, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"verify_{args.case}.json"
        path.write_text(text + "\n")
        _write_manifest(out_dir, "verify",
                        {"case": args.case, "s_max": args.s_max,
                         "tol": args.tol}, [path])
    print(text)
    if failed:
        print(f"FAILED categories: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg = McConfig(M=len(args.nu), N0=args.n0, nu_int=tuple(args.nu),
                   samples=args.samples, seed=args.seed)
    # a bad s, or the oracle's refusal of one, comes before any sample
    s_grid = _checked_s_grid(args.s_grid)
    oracle = None
    if cfg.M == 1:
        params = HardEdgeParams.from_nu((0.0, float(cfg.nu_int[0])))
        oracle = [gap_probability_hardedge(params, s, target_tol=1e-9).E
                  for s in s_grid]
    result = sample_min_singular_sq(cfg)
    rows = empirical_gap(result, s_grid)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_paths = []
    if args.save_samples:
        raw = out_dir / "lambda_min.f64"
        save_samples(result, raw)
        out_paths += [raw, Path(str(raw) + ".json")]
    csv_path = out_dir / "mc_gap.csv"
    with csv_path.open("w", newline="") as fh:
        header = "s,p_hat,ci_low,ci_high"
        if oracle is not None:
            header += ",E_analytic,sigma_distance"
        fh.write(header + "\n")
        n = cfg.samples
        for i, (s, p, lo, hi) in enumerate(rows):
            cells = [_fmt(s), _fmt(p), _fmt(lo), _fmt(hi)]
            if oracle is not None:
                e = oracle[i]
                sd = abs(p - e) / math.sqrt(max(e * (1 - e), 1e-12) / n)
                cells += [_fmt(e), _fmt(sd)]
            fh.write(",".join(cells) + "\n")
    _write_manifest(out_dir, "mc",
                    {"M": cfg.M, "N0": cfg.N0, "nu": list(cfg.nu_int),
                     "samples": cfg.samples, "s_grid": s_grid},
                    [csv_path] + out_paths, seed=cfg.seed)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_gap(args) -> int:
    pt = gap_probability_mb(MBParams(c=args.c), args.r, target_tol=args.tol)
    payload = {"c": args.c, "theta": 2.0, "r": args.r,
               "E": pt.E, "logE": pt.logE, "nodes": pt.node_count_used,
               "est_error": pt.est_error}
    if args.format == "csv":
        print(",".join(payload))
        print(",".join(_fmt(v) for v in payload.values()))
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_ode(args) -> int:
    params = HardEdgeParams.from_nu((0.0, *args.nu))
    # the grid runs from the first output abscissa 10 * LAUNCH_S to --s-max
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if not 10 * LAUNCH_S < args.s_max < math.inf:
        raise ValueError(f"--s-max must exceed {10 * LAUNCH_S:g}, "
                         f"the first output abscissa, and be finite: "
                         f"got {args.s_max}")
    grid = np.geomspace(10 * LAUNCH_S, args.s_max, args.points)
    traj = flow.integrate(params, LAUNCH_S, grid, tol=args.tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "trajectory.csv"
    path.write_text(flow.trajectory_csv(traj))
    _write_manifest(out_dir, "ode",
                    {"M": params.M, "nu": args.nu, "s_max": args.s_max,
                     "tol": args.tol, "points": args.points}, [path],
                    diagnostics={"nfev": traj.nfev})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sigma(args) -> int:
    if not all(s > LAUNCH_S for s in args.s):
        raise ValueError(f"--s values must exceed the launch point {LAUNCH_S:g}")
    if len(set(args.s)) < len(args.s):
        raise ValueError("--s values must be distinct")
    params = HardEdgeParams.from_nu(CASES["m2-special"][0])
    traj = flow.integrate(params, LAUNCH_S, sorted(args.s), tol=args.tol)
    # the first state is the launch; every other is one of the abscissas
    report = [{"s": st.s, "eta0": float(st.eta[0].real), **jet_residuals(st)}
              for st in traj.states[1:]]
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_fit(args) -> int:
    lines = Path(args.input).read_text().splitlines()
    # a first line that starts with a letter is a header, as in table1.csv
    if lines and lines[0][:1].isalpha():
        lines = lines[1:]
    if not any(lines):
        raise ValueError(f"{args.input} has no (r, logE) rows")
    data = np.loadtxt(lines, delimiter=",", usecols=(0, 1), ndmin=2)
    fit = fit_tail(data, mode=args.mode, extrapolate=args.extrapolate)
    payload = {"mode": args.mode, "a1": fit.a1, "b1": fit.b1, "c1": fit.c1,
               "window": list(fit.window), "residual": fit.residual,
               "a1_extrapolated": fit.a1_extrapolated,
               "predicted_abs_a1": A1_PREDICTED}
    if args.format == "csv":
        cols = ["a1", "b1", "c1", "residual", "a1_extrapolated"]
        print(",".join(cols))
        print(",".join(_fmt(payload[c]) for c in cols))
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_indicial(args) -> int:
    params = HardEdgeParams.from_nu((0.0, *args.nu))
    rep = indicial_exponents(params)
    payload = {
        "nu": list(params.nu),
        "fixed_exponents": sorted(rep.fixed_exponents),
        "lambda_zero": rep.lambda_zero,
        "quadratic_pair": [_c2s(v) for v in rep.quadratic_pair],
        "halfinteger_pair": [_c2s(v) for v in rep.halfinteger_pair],
        "fractional_C1": [_c2s(v) for v in rep.fractional_C1],
        "x_disc": rep.x_disc,
        "y_disc": rep.y_disc,
        "delta1": rep.delta1,
        "mu1": rep.mu1,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _c2s(v):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return {"re": v.real, "im": v.imag}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hardedge",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table1", help="reproduce the reference determinant table")
    t.add_argument("--out", default="out")
    t.add_argument("--nodes", type=int, default=48)
    t.add_argument("--r-min", type=int, default=4)
    t.add_argument("--r-max", type=int, default=14)
    t.set_defaults(func=cmd_table1)

    v = sub.add_parser("verify", help="run the residual suites")
    v.add_argument("case", choices=list(CASES))
    v.add_argument("--s-max", type=float, default=5.0)
    v.add_argument("--tol", type=float, default=1e-10)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("mc", help="Monte Carlo gap curves")
    m.add_argument("--n0", type=int, default=50)
    m.add_argument("--nu", type=int, nargs="+", default=(0,), metavar="NU",
                   help="integer nu_1 .. nu_M; M is their count (default: 0)")
    m.add_argument("--samples", type=int, default=10000)
    m.add_argument("--seed", type=int, default=7)
    m.add_argument("--s-grid", type=float, nargs="+", default=(0.5, 1.0, 2.0))
    m.add_argument("--save-samples", action="store_true")
    m.add_argument("--out", default="out")
    m.set_defaults(func=cmd_mc)

    g = sub.add_parser("gap", help="single Fredholm gap evaluation")
    g.add_argument("--c", type=float, required=True)
    g.add_argument("--r", type=float, required=True)
    g.add_argument("--tol", type=float, default=1e-9)
    g.add_argument("--format", choices=["json", "csv"], default="json")
    g.set_defaults(func=cmd_gap)

    o = sub.add_parser("ode", help="trajectory export, nu=(0,0) or (0,-1/2,0)")
    o.add_argument("--nu", type=float, nargs="+", metavar="NU",
                   default=CASES["m2-special"][0][1:],
                   help="nu_1 .. nu_M; M is their count (default: -0.5 0)")
    o.add_argument("--s-max", type=float, default=5.0)
    o.add_argument("--tol", type=float, default=1e-10)
    o.add_argument("--points", type=int, default=40)
    o.add_argument("--out", default="out")
    o.set_defaults(func=cmd_ode)

    sg = sub.add_parser("sigma", help="sigma-form residuals, nu=(0,-1/2,0)")
    sg.add_argument("--s", type=float, nargs="+", default=(0.5, 1.0, 2.0))
    sg.add_argument("--tol", type=float, default=1e-10)
    sg.set_defaults(func=cmd_sigma)

    f = sub.add_parser("fit", help="tail fit from CSV")
    f.add_argument("input")
    f.add_argument("--mode", default="local_triple",
                   choices=["local_triple", "global_lsq"])
    f.add_argument("--extrapolate", action="store_true")
    f.add_argument("--format", choices=["json", "csv"], default="json")
    f.set_defaults(func=cmd_fit)

    i = sub.add_parser("indicial", help="small-s exponent classification")
    i.add_argument("--nu", type=float, nargs=2, required=True,
                   metavar=("NU_1", "NU_2"), help="nu_1 nu_2 (M=2)")
    i.set_defaults(func=cmd_indicial)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # numerical refusals first: LinAlgError is a ValueError
    except (NonConvergedError, flow.FlowError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
