"""Command-line front end.

Subcommands: threshold (one scalar threshold), table (recompute a published
comparison table), curve (sweep beta(alpha) to a resumable CSV/JSON file),
verify (Monte Carlo / exhaustive empirical checks), audit (closed-form vs
quadrature parity).

Exit codes: 0 success, 2 usage/cap violation, 3 numerical failure,
4 audit failure.  All floats are serialized with 9 significant digits and
every code path is deterministic given the flags and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, empirical
from .config import Config, load_config
from .errors import DimensionError, DomainError, L1LabError
from .lift_core import KINDS, threshold_bisect
from .parity import run_parity_audit
from .reference_values import TABLES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_AUDIT = 4

KIND_FLAGS = {kind.replace("_", "-"): kind for kind in KINDS}


def fmt(x) -> str:
    """Canonical 9-significant-digit float text (CSV and JSON share it)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return format(x, ".9g")


def fnum(x):
    """Float carrying exactly the canonical 9-digit value (None for NaN)."""
    x = float(x)
    return None if math.isnan(x) else float(fmt(x))


def _result_row(result) -> dict:
    p = result.params_at_optimum
    return {
        "alpha": fnum(result.alpha),
        "beta": fnum(result.beta),
        "kind": result.kind,
        "method": result.method,
        "condition_margin": fnum(result.condition_margin),
        "c3": fnum(p.c3) if p else None,
        "gamma": fnum(p.gamma) if p else None,
        "nu1": fnum(p.nu1) if p else None,
        "nu2": fnum(p.nu2) if p else None,
    }


def _print_json(payload):
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


# --------------------------------------------------------------------------
# threshold
# --------------------------------------------------------------------------

def cmd_threshold(args, config: Config) -> int:
    kind = KIND_FLAGS[args.kind]
    method = "direct" if kind in ("weak", "weak_nonneg") else args.method
    result = threshold_bisect(args.alpha, kind, method, tol_beta=args.tol,
                              config=config)
    row = _result_row(result)
    if args.out == "json":
        _print_json(row)
    elif args.out == "csv":
        keys = ["alpha", "kind", "method", "beta", "condition_margin",
                "c3", "gamma", "nu1", "nu2"]
        print(",".join(keys))
        print(",".join("" if row[k] is None else str(row[k]) for k in keys))
    else:
        print(f"{kind} threshold ({method}) at alpha={fmt(result.alpha)}: "
              f"beta={fmt(result.beta)}")
        print(f"  condition margin: {fmt(result.condition_margin)}")
        if result.params_at_optimum:
            p = result.params_at_optimum
            print(f"  params: c3={fmt(p.c3)} gamma={fmt(p.gamma)} "
                  f"nu1={fmt(p.nu1)} nu2={fmt(p.nu2)}")
    return EXIT_OK


# --------------------------------------------------------------------------
# table
# --------------------------------------------------------------------------

def _table_payload(which: int, config: Config) -> dict:
    spec = TABLES[which]
    rows = []
    for alpha in spec.alphas:
        row = {"alpha": fnum(alpha)}
        if spec.reference is not None:
            row[spec.reference_label] = fnum(spec.reference[alpha])
        for method in spec.computed_methods:
            result = threshold_bisect(alpha, spec.kind, method, config=config)
            row[method] = fnum(result.beta)
        rows.append(row)
    return {"table": which, "kind": spec.kind, "rows": rows,
            "note": "literature columns are shipped constants, not recomputed"}


def cmd_table(args, config: Config) -> int:
    payload = _table_payload(args.which, config)
    if args.out == "json":
        _print_json(payload)
    else:
        rows = payload["rows"]
        keys = list(rows[0].keys())
        print(",".join(keys))
        for row in rows:
            print(",".join(str(row[k]) for k in keys))
    return EXIT_OK


# --------------------------------------------------------------------------
# curve
# --------------------------------------------------------------------------

def parse_alpha_grid(text: str) -> list[float]:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise DomainError(f"--alpha-grid must be start:stop:step, got {text!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError(f"--alpha-grid parts must be finite, got {text!r}")
    if step <= 0:
        raise DomainError("--alpha-grid step must be positive")
    grid = []
    i = 0
    while True:
        a = round(start + i * step, 12)
        if a > stop + 1e-12:
            break
        grid.append(a)
        i += 1
    if not grid or grid[0] <= 0 or grid[-1] >= 1:
        raise DomainError("--alpha-grid must produce a nonempty grid inside (0, 1)")
    return grid


_CURVE_COLUMNS = ("alpha", "beta", "condition_margin", "c3", "gamma", "nu1", "nu2")


def _curve_meta(kind, method, grid_text, tol) -> str:
    return (f"# l1lab-curve version={__version__} kind={kind} method={method} "
            f"grid={grid_text} tol_beta={fmt(tol)}")


def _curve_point_task(task):
    alpha, kind, method, tol, config = task
    try:
        result = threshold_bisect(alpha, kind, method, tol_beta=tol, config=config)
        row = _result_row(result)
    except L1LabError as exc:
        sys.stderr.write(f"curve point alpha={alpha} failed: {exc}\n")
        row = {"alpha": fnum(alpha), "beta": None, "condition_margin": None,
               "c3": None, "gamma": None, "nu1": None, "nu2": None}
    return alpha, row


def _row_to_csv(row) -> str:
    return ",".join(
        "nan" if row.get(col) is None else fmt(row[col]) for col in _CURVE_COLUMNS
    )


def _read_existing_curve(path, meta_line):
    """Rows of a partial curve file, keyed by the canonical alpha text."""
    rows = {}
    if not os.path.exists(path):
        return rows
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != meta_line:
        raise DomainError(
            f"existing file {path} was produced with different flags; "
            f"remove it or change --out-file"
        )
    for line in lines[2:]:
        parts = line.split(",")
        if len(parts) != len(_CURVE_COLUMNS):
            continue  # partial trailing line from an interrupted run
        try:
            vals = {col: float(v) for col, v in zip(_CURVE_COLUMNS, parts)}
        except ValueError:
            continue
        if math.isnan(vals["beta"]):
            continue  # retry failed points on resume
        rows[fmt(vals["alpha"])] = {
            col: (None if math.isnan(vals[col]) else fnum(vals[col]))
            for col in _CURVE_COLUMNS
        }
    return rows


def _parallel_map(task_fn, tasks, jobs):
    if jobs <= 1 or len(tasks) <= 1:
        return [task_fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task_fn, tasks))


def cmd_curve(args, config: Config) -> int:
    kind = KIND_FLAGS[args.kind]
    method = "direct" if kind in ("weak", "weak_nonneg") else args.method
    grid = parse_alpha_grid(args.alpha_grid)
    tol = args.tol if args.tol is not None else config.tol_beta
    meta = _curve_meta(kind, method, args.alpha_grid, tol)
    rows = _read_existing_curve(args.out_file, meta)

    missing = [a for a in grid if fmt(a) not in rows]
    results = _parallel_map(
        _curve_point_task, [(a, kind, method, tol, config) for a in missing],
        config.effective_jobs(),
    )
    failed = 0
    for alpha, row in results:
        rows[fmt(alpha)] = row
        failed += row["beta"] is None

    ordered = [
        {col: rows[fmt(a)].get(col) for col in _CURVE_COLUMNS}
        for a in grid if fmt(a) in rows
    ]
    if args.format == "csv":
        body = "\n".join([meta, ",".join(_CURVE_COLUMNS)]
                         + [_row_to_csv(r) for r in ordered]) + "\n"
    else:
        payload = {
            "header": {"tool": "l1lab-curve", "version": __version__,
                       "kind": kind, "method": method, "grid": args.alpha_grid,
                       "tol_beta": fnum(tol)},
            "points": ordered,
        }
        body = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    with open(args.out_file, "w") as fh:
        fh.write(body)
    print(f"wrote {len(ordered)} curve points to {args.out_file}"
          + (f" ({failed} failed)" if failed else ""))
    return EXIT_NUMERICAL if failed else EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_weak(args, config: Config) -> dict:
    n, trials = args.n, args.trials
    m = int(round(args.alpha * n))
    k = int(round(args.beta * n))
    seeds = empirical.trial_seeds(args.seed, trials)
    trials_out = []
    hits = 0
    iters = []
    for s in seeds:
        inst = empirical.generate_instance(n, m, k, nonneg=args.nonneg, seed=int(s))
        try:
            rep = empirical.solve_basis_pursuit(inst, nonneg=args.nonneg,
                                                config=config)
            ok = rep.recovered
            trials_out.append({"seed": int(s), "recovered": ok,
                               "iterations": rep.solver_iterations,
                               "rel_error": fnum(rep.rel_error)})
            iters.append(rep.solver_iterations)
        except L1LabError as exc:
            ok = False
            trials_out.append({"seed": int(s), "recovered": False,
                               "error": str(exc)})
        hits += int(ok)
    return {
        "mode": "weak", "alpha": fnum(args.alpha), "beta": fnum(args.beta),
        "n": n, "m": m, "k": k, "trials": trials, "seed": args.seed,
        "nonneg": args.nonneg, "rate": fnum(hits / trials),
        "solver_stats": {
            "mean_iterations": fnum(np.mean(iters)) if iters else None,
            "max_iterations": int(max(iters)) if iters else None,
        },
        "per_trial": trials_out,
    }


def _verify_nullspace(args, config: Config) -> dict:
    n, trials = args.n, args.trials
    m = int(round(args.alpha * n))
    k = int(round(args.beta * n))
    # before the m x n matrices are drawn, so an oversized n exits cleanly
    empirical.check_nullspace_size(args.mode, n, k)
    seeds = empirical.trial_seeds(args.seed, trials)
    matrices = []
    holds_count = 0
    for s in seeds:
        rng = np.random.default_rng(int(s))
        A = rng.standard_normal((m, n))
        if args.mode == "sectional":
            support = np.sort(rng.choice(n, size=k, replace=False))
            holds = empirical.sectional_nullspace_holds(A, support)
            matrices.append({"seed": int(s), "holds": holds,
                             "support": [int(i) for i in support]})
        else:
            holds = empirical.strong_nullspace_holds(A, k, nonneg=args.nonneg)
            matrices.append({"seed": int(s), "holds": holds})
        holds_count += int(holds)
    return {
        "mode": args.mode, "alpha": fnum(args.alpha), "beta": fnum(args.beta),
        "n": n, "m": m, "k": k, "trials": trials, "seed": args.seed,
        "nonneg": args.nonneg, "holds_fraction": fnum(holds_count / trials),
        "per_matrix": matrices,
    }


def cmd_verify(args, config: Config) -> int:
    payload = _verify_weak(args, config) if args.mode == "weak" \
        else _verify_nullspace(args, config)
    _print_json(payload)
    return EXIT_OK


# --------------------------------------------------------------------------
# audit
# --------------------------------------------------------------------------

def cmd_audit(args, config: Config) -> int:
    report = run_parity_audit(samples=args.samples, seed=args.seed)
    payload = report.to_dict()
    payload["per_kind_max_rel_dev"] = {
        k: fnum(v) for k, v in payload.pop("max_rel_dev").items()
    }
    _print_json(payload)
    return EXIT_OK if report.passed else EXIT_AUDIT


# --------------------------------------------------------------------------
# parser / entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1lab",
        description="phase-transition thresholds of l1-minimization "
                    "sparse recovery, with empirical verification",
    )
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel workers (default: available cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="compute one threshold beta(alpha)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kind", choices=sorted(KIND_FLAGS), required=True)
    p.add_argument("--method", choices=("direct", "lifted"), default="lifted")
    p.add_argument("--tol", type=float, default=None, help="beta tolerance (>= 1e-5)")
    p.add_argument("--out", choices=("json", "csv", "text"), default="text")
    p.set_defaults(handler=cmd_threshold)

    p = sub.add_parser("table", help="recompute a published comparison table")
    p.add_argument("--which", type=int, required=True, choices=sorted(TABLES))
    p.add_argument("--out", choices=("json", "csv"), default="csv")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("curve", help="sweep beta(alpha) over a grid to a file")
    p.add_argument("--kind", choices=sorted(KIND_FLAGS), required=True)
    p.add_argument("--method", choices=("direct", "lifted"), default="lifted")
    p.add_argument("--alpha-grid", required=True, metavar="START:STOP:STEP")
    p.add_argument("--out-file", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("verify", help="empirical checks (Monte Carlo / exhaustive)")
    p.add_argument("--mode", choices=("weak", "sectional", "strong"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nonneg", action="store_true")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("audit", help="closed-form vs quadrature parity audit")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config({"jobs": args.jobs})
    except (KeyError, ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE

    if getattr(args, "samples", None) is not None and args.command == "audit":
        if args.samples < 1:
            parser.error("--samples must be >= 1")
    if getattr(args, "trials", None) is not None and args.command == "verify":
        if args.trials < 1:
            parser.error("--trials must be >= 1")
    if args.command == "verify" and not (math.isfinite(args.alpha)
                                         and math.isfinite(args.beta)):
        parser.error("--alpha and --beta must be finite")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 1e-5):
        parser.error("--tol must be finite and >= 1e-5")

    try:
        return args.handler(args, config)
    except (DomainError, DimensionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except L1LabError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
