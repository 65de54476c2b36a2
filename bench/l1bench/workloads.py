"""The benchmark workloads.

Each workload builds its inputs from the seed, runs in rounds, and turns
every operation into one attempted item that fails if it raised or if its
output failed a check.  Per operation it records two timings, each a list
of (start, end, seconds) pieces whose seconds exclude the host-speed
probes taken inside them (see reference.py):

* op   -- the primary operation: one threshold solve (lifted-table,
          direct-curves) or one n = 200 basis-pursuit solve
          (empirical-verify);
* aux  -- the secondary operation: the direct columns at the table
          alphas (lifted-table), one parity audit
          (direct-curves), one null-space oracle call (empirical-verify).

Workloads call `rec.ref.maybe_probe()` between operations, so probes are
spread evenly over every run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

import l1lab
from l1lab import cli, empirical, parity
from l1lab.errors import L1LabError

from . import published as pub
from .reference import Reference
from .tracer import rebind

perf = time.perf_counter


class Recorder:
    """Timings and check outcomes of one run."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.op = []         # per operation: [(start, end, seconds), ...]
        self.aux = []
        self.attempted = 0
        self.failed = 0
        self.findings = []

    def start(self):
        return perf(), self.ref.spent

    def piece(self, mark):
        """(start, end, seconds since mark less the probe time inside)."""
        t0, spent0 = mark
        t1 = perf()
        return t0, t1, t1 - t0 - (self.ref.spent - spent0)

    def item(self, problems):
        """Count one operation; it fails when `problems` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.findings) < 25:
                self.findings.extend(problems)


def _timed(fn, sink, ref):
    """Wrap fn so each call appends (start, end, error or None) to sink,
    after a host-speed probe when one is due."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ref.maybe_probe()
        t0 = perf()
        try:
            out = fn(*args, **kwargs)
        except L1LabError as exc:
            sink.append((t0, perf(), exc))
            raise
        sink.append((t0, perf(), None))
        return out
    return wrapper


def _probing(fn, ref):
    """Wrap fn so a host-speed probe runs before it when one is due."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ref.maybe_probe()
        return fn(*args, **kwargs)
    return wrapper


class LiftedTable:
    """Lifted threshold solves of the three lifted kinds at table alphas.

    One round is one lifted solve; a run makes each solve of `plan` once,
    in an order the seed draws.  The plan is fixed rather than drawn by the
    seed because the cost of a lifted solve differs up to 5x between table
    alphas, which would swamp the run-to-run spread.  It holds every
    lifted kind once and both ends of the table: alpha = 0.1, and
    alpha = 0.999, which runs the wide c3 ladder and the escalation band.
    All six (kind, alpha) pairs take about 55 s, more than a run may
    last.  Before each lifted solve the round solves the direct column of
    every kind at every table alpha (the direct half of the comparison
    tables); those three columns are the secondary operation, and they
    back the lifted >= direct check.  Inside a lifted solve the host-speed
    probes run before lifted margin evaluations, when present.
    """

    name = "lifted-table"
    op_label = "lifted threshold solve"
    aux_label = "direct columns of the three lifted kinds at the table alphas"
    plan_pairs = (("sectional", 0.1), ("strong", 0.999), ("strong_nonneg", 0.1))
    kinds = ("sectional", "strong", "strong_nonneg")
    margins = (("thresholds_general", "sectional_margin_lifted"),
               ("thresholds_general", "strong_margin_lifted"),
               ("thresholds_nonneg", "strong_nonneg_margin_lifted"))
    table_alphas = tuple(sorted(pub.SECTIONAL_DIRECT))
    # per kind: the layers its lifted solves must reach
    kind_layers = {
        "sectional": ("thresholds_general.sectional_exp_moments.calls",
                      "thresholds_general.direct_minimum.calls"),
        "strong": ("thresholds_general.strong_exp_moment.calls",
                   "thresholds_general.direct_minimum.calls"),
        "strong_nonneg": ("thresholds_nonneg.nonneg_exp_moment.calls",
                          "thresholds_nonneg.strong_nonneg_direct_minimum.calls"),
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.plan = [self.plan_pairs[i] for i in rng.permutation(len(self.plan_pairs))]
        self.min_rounds = self.cycle = len(self.plan)
        self.eps = l1lab.Config().feasibility_margin
        self.expect_calls = (
            "lift_core.threshold_bisect.calls", "lift_core.margin.calls",
            "lift_core.minimize_lifted_total.calls", "lift_core.i_sph.calls",
            "numerics.gaussian_quadratic_integral.calls",
        ) + tuple(name for kind, _ in self.plan for name in self.kind_layers[kind])

    def warm_up(self):
        l1lab.threshold_bisect(0.5, "sectional", "direct")

    def install(self, ref: Reference):
        # probes inside a lifted solve; a renamed margin only means fewer
        restore = [rebind(module, attr, lambda fn: _probing(fn, ref))
                   for module, attr in self.margins]
        return [undo for undo in restore if undo is not None]

    def round(self, r: int, rec: Recorder):
        kind, alpha = self.plan[r % len(self.plan)]
        direct = {}
        mark = rec.start()
        for column in self.kinds:
            for a in self.table_alphas:
                rec.ref.maybe_probe()
                try:
                    direct[column, a] = l1lab.threshold_bisect(a, column, "direct").beta
                except L1LabError as exc:
                    rec.item([f"{column} direct alpha={a}: raised {exc!r}"])
        rec.aux.append([rec.piece(mark)])
        self._check_columns(direct, rec)
        rec.ref.maybe_probe()
        mark = rec.start()
        try:
            lifted = l1lab.threshold_bisect(alpha, kind, "lifted")
        except L1LabError as exc:
            rec.op.append([rec.piece(mark)])
            rec.item([f"{kind} lifted alpha={alpha}: raised {exc!r}"])
            return
        rec.op.append([rec.piece(mark)])
        want = pub.LIFTED[kind][alpha]
        problems = []
        if abs(lifted.beta - want) > pub.TOL_BETA:
            problems.append(f"{kind} lifted alpha={alpha}: beta {lifted.beta:.6f}, "
                            f"published {want} (+-{pub.TOL_BETA})")
        floor = direct.get((kind, alpha))
        if floor is not None and lifted.beta < floor - pub.TOL_BETA:
            problems.append(f"{kind} alpha={alpha}: lifted {lifted.beta:.6f} < "
                            f"direct {floor:.6f} - {pub.TOL_BETA}")
        if not lifted.condition_margin < -self.eps:
            problems.append(f"{kind} lifted alpha={alpha}: margin "
                            f"{lifted.condition_margin!r} not below -{self.eps}")
        rec.item(problems)

    @staticmethod
    def _check_columns(betas, rec):
        slack = pub.BISECT_SLACK
        for (kind, alpha), beta in betas.items():
            problems = []
            want = pub.SECTIONAL_DIRECT[alpha] if kind == "sectional" else None
            if want is not None and abs(beta - want) > pub.TOL_BETA:
                problems.append(f"sectional direct alpha={alpha}: beta {beta:.6f}, "
                                f"published {want}")
            if kind == "strong" and beta > betas.get(("sectional", alpha), math.inf) + slack:
                problems.append(f"direct strong > sectional at alpha={alpha}")
            if kind == "strong_nonneg" and beta < betas.get(("strong", alpha), -math.inf) - slack:
                problems.append(f"direct strong_nonneg < strong at alpha={alpha}")
            rec.item(problems)


class DirectCurves:
    """Direct-method curves of all five kinds through `l1lab curve`, plus
    the direct sectional column at the table alphas and a parity audit.

    Each kind's 0.01 grid is swept as five interleaved slices (step 0.05,
    offsets 0, 0.01, ..., 0.04), kind after kind within each slice, and
    the parity audit runs as one fifth after each slice, so every kind of
    work is spread over the whole round rather than bunched in one window
    of the host's varying speed.  The secondary operation is the round's
    whole audit.  The seed offsets the grid of every round and seeds each
    audit slice.
    """

    name = "direct-curves"
    op_label = "direct threshold solve inside l1lab curve"
    aux_label = "parity audit"
    kinds = ("weak", "weak-nonneg", "sectional", "strong", "strong-nonneg")
    step = 0.01
    slices = 5
    audit_samples = 300
    table_alphas = tuple(sorted(pub.SECTIONAL_DIRECT))
    min_rounds = 1
    cycle = 1
    expect_calls = (
        "lift_core.threshold_bisect.calls", "lift_core.margin.calls",
        "thresholds_general.direct_minimum.calls",
        "thresholds_nonneg.strong_nonneg_direct_minimum.calls",
        "numerics.find_root.calls", "lift_core.exp_set_term_oracle.calls",
        "numerics.gauss_expectation.calls", "parity.records",
    )

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.starts = [0.01 + float(u) for u in rng.uniform(0, self.step, 64)]
        self.audit_seeds = [int(s) for s in rng.integers(0, 2 ** 31, 320)]
        self.workdir = workdir
        self.solves = []          # (start, end, error) per threshold_bisect call

    def warm_up(self):
        l1lab.threshold_bisect(0.5, "sectional", "direct")

    def install(self, ref: Reference):
        return [rebind("lift_core", "threshold_bisect",
                       lambda fn: _timed(fn, self.solves, ref))]

    def _curve(self, flag, grid, out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--jobs", "1", "curve", "--kind", flag, "--method", "direct",
                             "--alpha-grid", grid, "--out-file", str(out)])
        lines = out.read_text().splitlines()[2:] if out.exists() else []
        return code, [tuple(float(v) for v in line.split(",")[:2]) for line in lines]

    def round(self, r: int, rec: Recorder):
        start = self.starts[r % len(self.starts)]
        self.solves.clear()
        curves = {flag: {} for flag in self.kinds}
        audit = []
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            for j in range(self.slices):
                grid = f"{start + j * self.step:.4f}:0.99:{self.slices * self.step:.4f}"
                for flag in self.kinds:
                    code, points = self._curve(flag, grid, Path(tmp) / f"{flag}-{j}.csv")
                    if code != 0 or not points:
                        rec.item([f"curve {flag} grid {grid}: exit {code}, "
                                  f"{len(points)} points"])
                    curves[flag].update(points)
                rec.ref.maybe_probe()
                mark = rec.start()
                self._audit(self.audit_seeds[(r * self.slices + j) % len(self.audit_seeds)], rec)
                audit.append(rec.piece(mark))
        for alpha in self.table_alphas:
            try:
                beta = l1lab.threshold_bisect(alpha, "sectional", "direct").beta
            except L1LabError as exc:
                rec.item([f"sectional direct alpha={alpha}: raised {exc!r}"])
                continue
            want = pub.SECTIONAL_DIRECT[alpha]
            rec.item([] if abs(beta - want) <= pub.TOL_BETA else
                     [f"sectional direct alpha={alpha}: beta {beta:.6f}, published {want}"])
        rec.op.extend([(t0, t1, t1 - t0)] for t0, t1, _ in self.solves)
        rec.aux.append(audit)
        self._check_curves({flag: dict(sorted(points.items()))
                            for flag, points in curves.items()}, rec)

    def _audit(self, seed, rec):
        try:
            report = parity.run_parity_audit(samples=self.audit_samples // self.slices,
                                             seed=seed)
        except L1LabError as exc:
            rec.item([f"parity audit seed={seed} raised {exc!r}"])
            return
        dev = report.max_dev()
        rec.item([] if report.passed and dev <= pub.PARITY_TOL else
                 [f"parity audit seed={seed}: max relative deviation {dev:.3e} "
                  f"> {pub.PARITY_TOL}"])

    def _check_curves(self, curves, rec):
        slack = pub.BISECT_SLACK
        for flag, points in curves.items():
            prev = None
            for alpha, beta in points.items():
                problems = []
                if not math.isfinite(beta):
                    problems.append(f"{flag} alpha={alpha}: no threshold (nan)")
                elif prev is not None and beta < prev - slack:
                    problems.append(f"{flag} decreases at alpha={alpha}")
                if flag == "strong" and beta > curves["sectional"].get(alpha, math.inf) + slack:
                    problems.append(f"strong > sectional at alpha={alpha}")
                if flag == "strong-nonneg" and beta < curves["strong"].get(alpha, -math.inf) - slack:
                    problems.append(f"strong-nonneg < strong at alpha={alpha}")
                rec.item(problems)
                prev = beta


class EmpiricalVerify:
    """Monte Carlo weak recovery at n = 200 around the analytic weak curve,
    and the exhaustive null-space implication chain at n = 16, m = 12 on
    two matrices per round (the oracle's cost differs between matrices).

    The seed draws every trial seed and every oracle matrix.  Three alphas
    per sign model (one below the weak curve, two above) keep two thirds of
    the basis-pursuit solves running to convergence, so the median solve
    lies inside that mode rather than on the edge between fast early-exit
    misses and full solves.
    """

    name = "empirical-verify"
    op_label = "basis-pursuit solve, n=200"
    aux_label = "null-space oracle call, n=16"
    n = 200
    trials = 100
    beta = 0.1
    offsets = (-0.08, 0.04, 0.08)
    nsp_n, nsp_m = 16, 12
    matrices = 2              # oracle matrices per round
    planted = 5
    min_rounds = 1
    cycle = 1
    expect_calls = (
        "empirical.solve_basis_pursuit.calls", "empirical.strong_nullspace_holds.calls",
        "empirical.sectional_nullspace_holds.calls", "empirical.linprog.calls",
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.curve = {False: l1lab.weak_alpha_of_beta(self.beta),
                      True: l1lab.weak_nonneg_alpha_of_beta(self.beta)}
        self.bp = []

    def warm_up(self):
        inst = empirical.generate_instance(20, 12, 2, seed=0)
        empirical.solve_basis_pursuit(inst)
        A = np.random.default_rng(0).standard_normal((4, 6))
        empirical.sectional_nullspace_holds(A, [0])

    def install(self, ref: Reference):
        return [rebind("empirical", "solve_basis_pursuit", lambda fn: _timed(fn, self.bp, ref))]

    def round(self, r: int, rec: Recorder):
        rng = np.random.default_rng([self.seed, r])
        chain = itertools.chain.from_iterable(
            self._chain(np.random.default_rng(int(s)), rec)
            for s in rng.integers(0, 2 ** 31, self.matrices))
        for nonneg in (False, True):
            for off in self.offsets:
                alpha = self.curve[nonneg] + off
                first = len(self.bp)
                with warnings.catch_warnings():
                    # stalls are counted per call below; the summary warning adds nothing
                    warnings.simplefilter("ignore")
                    rate = empirical.weak_recovery_rate(
                        alpha, self.beta, self.n, self.trials, nonneg=nonneg,
                        seed=int(rng.integers(0, 2 ** 31)))
                for t0, t1, err in self.bp[first:]:
                    rec.op.append([(t0, t1, t1 - t0)])
                    rec.item([] if err is None else
                             [f"basis pursuit n={self.n} alpha={alpha:.4f}: {err!r}"])
                wrong_side = rate >= 0.5 if off < 0 else rate <= 0.5
                rec.item([f"recovery rate {rate} at alpha={alpha:.4f} (nonneg={nonneg}) "
                          f"is on the wrong side of 50%"] if wrong_side else [])
                next(chain, None)
        for _ in chain:
            pass
        self.bp.clear()

    def _oracle(self, rec, fn, *args, **kwargs):
        rec.ref.maybe_probe()
        mark = rec.start()
        try:
            holds = fn(*args, **kwargs)
        except (L1LabError, RuntimeError) as exc:
            rec.aux.append([rec.piece(mark)])
            rec.item([f"{fn.__name__}: raised {exc!r}"])
            return None
        rec.aux.append([rec.piece(mark)])
        rec.item([])
        return holds

    def _chain(self, rng, rec):
        """strong => sectional on every support => basis pursuit recovers,
        and general strong => nonnegative strong, on one random matrix.

        A generator: the round advances it after each Monte Carlo call, so
        the oracle calls are spread over the round.
        """
        n, m = self.nsp_n, self.nsp_m
        A = rng.standard_normal((m, n))
        strong = {k: self._oracle(rec, empirical.strong_nullspace_holds, A, k) for k in (1, 2)}
        yield
        nonneg = self._oracle(rec, empirical.strong_nullspace_holds, A, 2, nonneg=True)
        if strong[2] and nonneg is False:
            rec.item(["strong k=2 holds but nonnegative strong k=2 fails"])
        yield
        for k in (1, 2):
            sectional = {}
            for i, support in enumerate(itertools.combinations(range(n), k)):
                sectional[support] = self._oracle(rec, empirical.sectional_nullspace_holds,
                                                  A, support)
                if strong[k] and sectional[support] is False:
                    rec.item([f"strong k={k} holds but sectional fails on {support}"])
                if i % 40 == 39:
                    yield
            for _ in range(self.planted):
                support = tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))
                x = np.zeros(n)
                x[list(support)] = (rng.choice([-1.0, 1.0], size=k)
                                    * (np.abs(rng.standard_normal(k)) + 0.5))
                inst = empirical.ProblemInstance(A=A, x_true=x, support=np.array(support),
                                                 signs=np.sign(x[list(support)]), y=A @ x,
                                                 seed=0)
                try:
                    recovered = empirical.solve_basis_pursuit(inst).recovered
                except L1LabError as exc:
                    rec.item([f"basis pursuit n={n} support {support}: {exc!r}"])
                    continue
                rec.item([f"sectional holds on {support} but basis pursuit missed"]
                         if sectional[support] and not recovered else [])


def make(name: str, seed: int, workdir: Path):
    if name == LiftedTable.name:
        return LiftedTable(seed)
    if name == DirectCurves.name:
        return DirectCurves(seed, workdir)
    if name == EmpiricalVerify.name:
        return EmpiricalVerify(seed)
    raise ValueError(f"unknown workload {name!r}")
