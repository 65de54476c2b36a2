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
from .lift_core import kind_table, threshold_bisect
from .parity import run_parity_audit
from .reference_values import TABLES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_AUDIT = 4

KIND_FLAGS = {kind.replace("_", "-"): kind for kind in kind_table()}


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
    result = threshold_bisect(args.alpha, KIND_FLAGS[args.kind], args.method, config)
    row = _result_row(result)
    if args.out == "json":
        _print_json(row)
    elif args.out == "csv":
        keys = ["alpha", "kind", "method", "beta", "condition_margin",
                "c3", "gamma", "nu1", "nu2"]
        print(",".join(keys))
        print(",".join("" if row[k] is None else str(row[k]) for k in keys))
    else:
        print(f"{result.kind} threshold ({result.method}) at alpha={fmt(result.alpha)}: "
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

MAX_GRID_POINTS = 100_000


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
    # the loop rounds each point to 12 digits and stops 1e-12 past stop, so
    # it makes at most floor((stop - start + 2e-12) / step) + 1 points; a
    # step too small to move the rounded grid would otherwise never stop
    if (stop - start + 2e-12) / step >= MAX_GRID_POINTS:
        raise DomainError(f"--alpha-grid must have at most {MAX_GRID_POINTS} points, "
                          f"got {text!r}")
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
    # curve rows and resume are keyed by fmt(alpha), which is monotone, so
    # points sharing a key are neighbours
    for a, b in zip(grid, grid[1:]):
        if fmt(a) == fmt(b):
            raise DomainError(f"--alpha-grid points {a!r} and {b!r} both print as "
                              f"alpha={fmt(a)}; use a coarser step")
    return grid


_CURVE_COLUMNS = ("alpha", "beta", "condition_margin", "c3", "gamma", "nu1", "nu2")


def _curve_headers(kind, method, grid_text, tol) -> tuple[str, dict]:
    """The first line of a CSV curve file and the header of a JSON one."""
    meta = (f"# l1lab-curve version={__version__} kind={kind} method={method} "
            f"grid={grid_text} tol_beta={fmt(tol)}")
    return meta, {"tool": "l1lab-curve", "version": __version__, "kind": kind,
                  "method": method, "grid": grid_text, "tol_beta": fnum(tol)}


def _curve_point_task(task):
    alpha, kind, method, config = task
    try:
        result = threshold_bisect(alpha, kind, method, config)
        row = _result_row(result)
    except L1LabError as exc:
        sys.stderr.write(f"curve point alpha={alpha} failed: {exc}\n")
        row = {**dict.fromkeys(_CURVE_COLUMNS), "alpha": fnum(alpha)}
    return alpha, row


def _row_to_csv(row) -> str:
    return ",".join(
        "nan" if row.get(col) is None else fmt(row[col]) for col in _CURVE_COLUMNS
    )


def _csv_point(line):
    """The point of one CSV curve row; None for a partial row left by an
    interrupted run."""
    try:
        vals = [float(v) for v in line.split(",")]
    except ValueError:
        return None
    if len(vals) != len(_CURVE_COLUMNS):
        return None
    return {col: None if math.isnan(v) else fnum(v) for col, v in zip(_CURVE_COLUMNS, vals)}


def _read_existing_curve(path, file_format, meta, header):
    """Points of a partial curve file, keyed by the canonical alpha text.

    The file must start with this run's meta line (CSV) or carry its header
    and a list of points (JSON).  Failed points, and points without a number
    or null under every column, are left out, so that a resumed run retries them.
    """
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        text = fh.read()
    points = None
    if file_format == "csv":
        lines = text.split("\n")
        if lines[0] == meta:
            points = [_csv_point(line) for line in lines[2:]]
    else:
        try:
            payload = json.loads(text)
            if payload["header"] == header and isinstance(payload["points"], list):
                points = payload["points"]
        except (ValueError, KeyError, TypeError):
            pass
    if points is None:
        raise DomainError(
            f"existing file {path} was produced with different flags; "
            f"remove it or change --out-file"
        )
    return {fmt(p["alpha"]): p for p in points
            if isinstance(p, dict) and None not in (p.get("alpha"), p.get("beta"))
            and all(type(p.get(col, "")) in (int, float, type(None)) for col in _CURVE_COLUMNS)}


def _parallel_map(task_fn, tasks, jobs):
    if jobs <= 1 or len(tasks) <= 1:
        return [task_fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task_fn, tasks))


def cmd_curve(args, config: Config) -> int:
    kind = KIND_FLAGS[args.kind]
    method = kind_table()[kind].method_for(args.method)
    grid = parse_alpha_grid(args.alpha_grid)
    meta, header = _curve_headers(kind, method, args.alpha_grid, config.tol_beta)
    rows = _read_existing_curve(args.out_file, args.format, meta, header)

    missing = [a for a in grid if fmt(a) not in rows]
    results = _parallel_map(
        _curve_point_task, [(a, kind, method, config) for a in missing],
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
        body = json.dumps({"header": header, "points": ordered}, sort_keys=True,
                          indent=1) + "\n"
    with open(args.out_file, "w") as fh:
        fh.write(body)
    print(f"wrote {len(ordered)} curve points to {args.out_file}"
          + (f" ({failed} failed)" if failed else ""))
    return EXIT_NUMERICAL if failed else EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_weak(args, config: Config) -> dict:
    rows = []
    for inst, out in empirical.weak_trials(args.alpha, args.beta, args.n, args.trials,
                                           nonneg=args.nonneg, seed=args.seed, config=config):
        if isinstance(out, L1LabError):
            rows.append({"seed": inst.seed, "recovered": False, "error": str(out)})
        else:
            rows.append({"seed": inst.seed, "recovered": out.recovered,
                         "iterations": out.solver_iterations,
                         "rel_error": fnum(out.rel_error), "decided_by": out.decided_by})
    iters = [row["iterations"] for row in rows if "error" not in row]
    decided = [row.get("decided_by") for row in rows]
    return {
        "mode": "weak", "alpha": fnum(args.alpha), "beta": fnum(args.beta),
        "n": args.n, "m": inst.shape[0], "k": inst.k, "trials": args.trials,
        "seed": args.seed, "nonneg": args.nonneg,
        "rate": fnum(sum(row["recovered"] for row in rows) / args.trials),
        "solver_stats": {
            "mean_iterations": fnum(np.mean(iters)) if iters else None,
            "max_iterations": int(max(iters)) if iters else None,
            "certified": decided.count("certificate"),
            "l1_cutoff": decided.count("l1_cutoff"),
            "tolerance": decided.count("tolerance"),
        },
        "per_trial": rows,
    }


def _verify_nullspace(args, config: Config) -> dict:
    n, trials = args.n, args.trials
    m = int(round(args.alpha * n))
    k = int(round(args.beta * n))
    # before the m x n matrices are drawn, so an oversized shape exits cleanly
    empirical.check_nullspace_size(m, n, k)
    seeds = empirical.trial_seeds(args.seed, trials)
    matrices = []
    for s in seeds:
        rng = np.random.default_rng(int(s))
        A = rng.standard_normal((m, n))
        row = {"seed": int(s)}
        target = k
        if args.mode == "sectional":
            target = np.sort(rng.choice(n, size=k, replace=False))
            row["support"] = [int(i) for i in target]
        if args.nonneg:     # the exact margin exists for general signs only
            row.update(margin=None, holds=getattr(empirical, f"{args.mode}_nullspace_holds")(
                A, target, nonneg=True))
        else:
            margin = getattr(empirical, f"{args.mode}_nullspace_margin")(A, target)
            row.update(holds=margin <= empirical.MARGIN_SLACK, margin=fnum(margin))
        matrices.append(row)
    return {
        "mode": args.mode, "alpha": fnum(args.alpha), "beta": fnum(args.beta),
        "n": n, "m": m, "k": k, "trials": trials, "seed": args.seed, "nonneg": args.nonneg,
        "holds_fraction": fnum(sum(row["holds"] for row in matrices) / trials),
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
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 1e-5):
        parser.error("--tol must be finite and >= 1e-5")
    try:
        config = load_config({"jobs": args.jobs, "tol_beta": tol})
    except (KeyError, ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE

    if args.command == "audit" and args.samples < 1:
        parser.error("--samples must be >= 1")
    if args.command == "verify" and args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.command == "verify":
        if not (math.isfinite(args.alpha) and math.isfinite(args.beta)):
            parser.error("--alpha and --beta must be finite")
        if not 0.0 < args.alpha < 1.0:
            parser.error("--alpha must lie in (0, 1)")

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
