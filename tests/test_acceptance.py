"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Threshold points shared between criteria are computed
once, in a two-worker process pool, by the module-scoped fixture.  The
pool's workers start with one BLAS thread each (see `_pool`).

Expected threshold values are the published reference numbers this library
must reproduce to +-5e-4 (reported there to 4-5 significant digits), and
never fall more than half a printed unit (plus tol_beta) below; the
Donoho / Donoho-Tanner columns are literature constants and are only
checked for presence, never recomputed.
"""

import contextlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from lp_oracles import lp_support_holds_many

from l1lab import empirical as emp
from l1lab import threshold_bisect
from l1lab.config import DEFAULT
from l1lab.reference_values import (
    DONOHO_STRONG,
    DONOHO_TANNER_STRONG_NONNEG,
    TABLE_ALPHAS_HIGH,
    TABLE_ALPHAS_LOW,
)

TOL = 5e-4
BISECT_SLACK = 2e-5  # two bisection widths

# published threshold columns to reproduce (low + high aspect ratios), as
# printed: a literal's last digit sets the printed unit of its cell
SECTIONAL_DIRECT = {
    0.01: "0.00069", 0.05: "0.00471", 0.1: "0.0112", 0.2: "0.0276", 0.3: "0.0481",
    0.4: "0.0728", 0.5: "0.1022", 0.6: "0.1373", 0.7: "0.1800", 0.8: "0.2337",
    0.9: "0.3079", 0.95: "0.3626", 0.99: "0.4378", 0.999: "0.4802", 0.9999: "0.4937",
}
SECTIONAL_LIFTED = {
    0.01: "0.00070", 0.05: "0.00483", 0.1: "0.0115", 0.2: "0.0283", 0.3: "0.0491",
    0.4: "0.0744", 0.5: "0.1045", 0.6: "0.1401", 0.7: "0.1832", 0.8: "0.2373",
    0.9: "0.3113", 0.95: "0.3654", 0.99: "0.4394", 0.999: "0.4807", 0.9999: "0.4937",
}
STRONG_LIFTED = {
    0.01: "0.00030", 0.05: "0.00206", 0.1: "0.00492", 0.2: "0.01225", 0.3: "0.02154",
    0.4: "0.03285", 0.5: "0.04645", 0.6: "0.06287", 0.7: "0.08298", 0.8: "0.1085",
    0.9: "0.1443", 0.95: "0.1710", 0.99: "0.2080", 0.999: "0.2291", 0.9999: "0.2359",
}
NONNEG_STRONG_LIFTED = {
    0.01: "0.00033", 0.05: "0.0024", 0.1: "0.0060", 0.2: "0.0158", 0.3: "0.0291",
    0.4: "0.0461", 0.5: "0.0680", 0.6: "0.0959", 0.7: "0.1323", 0.8: "0.1820",
    0.9: "0.2577", 0.95: "0.3188", 0.99: "0.4113", 0.999: "0.4694", 0.9999: "0.4895",
}

DOMINANCE_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


@contextlib.contextmanager
def _pool():
    """A two-worker spawn pool whose workers run BLAS on one thread: with
    the default threads, two workers on two cores start four BLAS threads
    that wait on each other.  Spawned workers start on demand and read the
    environment as they start, so it stays set for the pool's whole life."""
    one_thread = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS"), "1")
    with mock.patch.dict(os.environ, one_thread), ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool


def _worker_blas_threads(barrier):
    # the barrier holds each job until the other runs, so both workers report
    barrier.wait(timeout=120)
    return os.getpid(), os.environ.get("OPENBLAS_NUM_THREADS")


def test_pool_workers_start_on_one_blas_thread():
    before = dict(os.environ)
    with multiprocessing.get_context("spawn").Manager() as manager, _pool() as pool:
        barrier = manager.Barrier(2)
        seen = list(pool.map(_worker_blas_threads, [barrier, barrier]))
    assert len({pid for pid, _ in seen}) == 2
    assert {threads for _, threads in seen} == {"1"}
    assert dict(os.environ) == before


def _threshold_point(job):
    kind, method, alpha = job
    return job, threshold_bisect(alpha, kind, method).beta


def _mc_transition(job):
    beta, nonneg, seed = job
    return job, emp.fifty_percent_alpha(beta, n=200, trials=100, nonneg=nonneg,
                                        seed=seed, tol_alpha=0.01)


@pytest.fixture(scope="module")
def thresholds():
    """All (kind, method, alpha) -> beta needed by criteria 1-4 and 6."""
    jobs = set()
    table_alphas = TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH
    for alpha in table_alphas:
        jobs.add(("sectional", "direct", alpha))
        jobs.add(("sectional", "lifted", alpha))
        jobs.add(("strong", "lifted", alpha))
        jobs.add(("strong_nonneg", "lifted", alpha))
    for alpha in DOMINANCE_GRID:
        for kind in ("sectional", "strong", "strong_nonneg"):
            for method in ("direct", "lifted"):
                jobs.add((kind, method, alpha))
    jobs = sorted(jobs)
    t0 = time.time()
    with _pool() as pool:
        memo = dict(pool.map(_threshold_point, jobs, chunksize=4))
    print(f"\n[acceptance] {len(jobs)} threshold solves in {time.time()-t0:.0f}s")
    return memo


def _report(criterion, failures, note=""):
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {status}{(' ' + note) if note else ''}")
    for line in failures:
        print(f"    {line}")
    assert not failures


def _printed_unit(literal):
    """The unit of the last printed digit of a published literal."""
    return 10.0 ** Decimal(literal).as_tuple().exponent


def _column_failures(memo, kind, method, expected, alphas):
    """Cells outside +-TOL of the published value, or below its printed
    digits: beta < published - unit/2 - tol_beta.  A lifted beta is a
    certified lower bound, so a cell above its digits is printed, not
    gated."""
    failures = []
    for alpha in alphas:
        got = memo[(kind, method, alpha)]
        literal = expected[alpha]
        want, unit = float(literal), _printed_unit(literal)
        if abs(got - want) > TOL:
            failures.append(
                f"{kind}/{method} alpha={alpha}: got {got:.5f}, want {want} (+-{TOL})"
            )
        if got < want - 0.5 * unit - DEFAULT.tol_beta:
            failures.append(
                f"{kind}/{method} alpha={alpha}: got {got:.7f}, below the printed "
                f"{literal} by more than half a unit plus tol_beta"
            )
        elif got > want + 0.5 * unit:
            print(f"    above the printed digits: {kind}/{method} alpha={alpha}: "
                  f"got {got:.7f}, printed {literal} ({(got - want) / unit:+.2f} units)")
    return failures


def test_criterion_1_sectional_low_alpha(thresholds):
    t0 = time.time()
    failures = (
        _column_failures(thresholds, "sectional", "direct", SECTIONAL_DIRECT,
                         TABLE_ALPHAS_LOW)
        + _column_failures(thresholds, "sectional", "lifted", SECTIONAL_LIFTED,
                           TABLE_ALPHAS_LOW)
    )
    _report("1: sectional thresholds, low alpha", failures,
            f"({time.time()-t0:.1f}s incremental)")


def test_criterion_2_sectional_high_alpha(thresholds):
    failures = (
        _column_failures(thresholds, "sectional", "direct", SECTIONAL_DIRECT,
                         TABLE_ALPHAS_HIGH)
        + _column_failures(thresholds, "sectional", "lifted", SECTIONAL_LIFTED,
                           TABLE_ALPHAS_HIGH)
    )
    _report("2: sectional thresholds, high alpha", failures)


def test_criterion_3_strong_lifted(thresholds):
    failures = _column_failures(thresholds, "strong", "lifted", STRONG_LIFTED,
                                TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH)
    # the literature column ships as constants covering every table alpha
    missing = [a for a in TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH
               if a not in DONOHO_STRONG]
    failures += [f"missing literature constant at alpha={a}" for a in missing]
    _report("3: strong lifted thresholds", failures)


def test_criterion_4_nonneg_strong_lifted(thresholds):
    failures = _column_failures(thresholds, "strong_nonneg", "lifted",
                                NONNEG_STRONG_LIFTED,
                                TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH)
    missing = [a for a in TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH
               if a not in DONOHO_TANNER_STRONG_NONNEG]
    failures += [f"missing literature constant at alpha={a}" for a in missing]
    _report("4: nonnegative strong lifted thresholds", failures)


def test_criterion_5_parity_audit():
    from l1lab.parity import run_parity_audit

    t0 = time.time()
    report = run_parity_audit(samples=100, seed=0)
    failures = [
        f"{rec.kind} beta={rec.beta:.3f} params={rec.params}: rel dev {rec.rel_dev:.2e}"
        for rec in report.failures()
    ]
    _report("5: closed-form/oracle parity (300 tuples)", failures,
            f"max dev {report.max_dev():.2e}, {time.time()-t0:.1f}s")
    assert time.time() - t0 < 60


def test_criterion_6_ordering_dominance(thresholds):
    failures = []
    for method in ("direct", "lifted"):
        for alpha in DOMINANCE_GRID:
            b_sec = thresholds[("sectional", method, alpha)]
            b_str = thresholds[("strong", method, alpha)]
            b_non = thresholds[("strong_nonneg", method, alpha)]
            if b_str > b_sec + BISECT_SLACK:
                failures.append(f"strong > sectional at alpha={alpha} ({method})")
            if b_non < b_str - BISECT_SLACK:
                failures.append(f"nonneg strong < strong at alpha={alpha} ({method})")
    for kind in ("sectional", "strong", "strong_nonneg"):
        for alpha in DOMINANCE_GRID:
            direct = thresholds[(kind, "direct", alpha)]
            lifted = thresholds[(kind, "lifted", alpha)]
            if lifted < direct - TOL:
                failures.append(
                    f"lifted < direct - {TOL} for {kind} at alpha={alpha}: "
                    f"{lifted:.5f} vs {direct:.5f}"
                )
        for method in ("direct", "lifted"):
            curve = [thresholds[(kind, method, a)] for a in DOMINANCE_GRID]
            drops = np.nonzero(np.diff(curve) < -BISECT_SLACK)[0]
            failures += [
                f"{kind}/{method} decreases at alpha={DOMINANCE_GRID[i + 1]}"
                for i in drops
            ]
    for kind in ("weak", "weak_nonneg"):
        curve = [threshold_bisect(a, kind, "direct").beta for a in DOMINANCE_GRID]
        drops = np.nonzero(np.diff(curve) < -BISECT_SLACK)[0]
        failures += [f"{kind} decreases at alpha={DOMINANCE_GRID[i + 1]}"
                     for i in drops]
    _report("6: ordering/dominance on the alpha grid", failures)


def test_criterion_7_empirical_weak_transition():
    from l1lab.thresholds_general import weak_alpha_of_beta
    from l1lab.thresholds_nonneg import weak_nonneg_alpha_of_beta

    t0 = time.time()
    jobs = [(beta, nonneg, 9000 + i)
            for i, (beta, nonneg) in enumerate(
                (b, nn) for nn in (False, True) for b in (0.05, 0.1, 0.2))]
    with _pool() as pool:
        results = dict(pool.map(_mc_transition, jobs))
    failures = []
    for (beta, nonneg, seed), alpha_mc in results.items():
        theory = (weak_nonneg_alpha_of_beta(beta) if nonneg
                  else weak_alpha_of_beta(beta))
        if abs(alpha_mc - theory) > 0.05:
            failures.append(
                f"beta={beta} nonneg={nonneg}: MC 50% alpha {alpha_mc:.3f} vs "
                f"theory {theory:.3f} (> +-0.05)"
            )
    elapsed = time.time() - t0
    _report("7: Monte Carlo weak transition at n=200", failures,
            f"({elapsed:.0f}s)")
    assert elapsed < 1200


def test_criterion_8_exhaustive_oracle_consistency():
    t0 = time.time()
    n, m = 16, 12
    failures = []
    held = {1: 0, 2: 0}
    for idx in range(50):
        rng = np.random.default_rng(5000 + idx)
        A = rng.standard_normal((m, n))
        for k in (1, 2):
            if not emp.strong_nullspace_holds(A, k):
                continue
            held[k] += 1
            # strong => sectional for every size-k support, the sectional
            # decisions taken from the LP form so the two are independent
            supports = list(combinations(range(n), k))
            decisions = lp_support_holds_many(A, [np.array(S) for S in supports], nonneg=False)
            bad = [S for S, holds in zip(supports, decisions) if not holds]
            if bad:
                failures.append(f"matrix {idx}: strong k={k} but sectional fails at {bad[:3]}")
                continue
            # => basis pursuit recovers every placed instance on this A
            for t in range(20):
                trial_rng = np.random.default_rng((idx, k, t))
                support = np.sort(trial_rng.choice(n, size=k, replace=False))
                x = np.zeros(n)
                x[support] = (trial_rng.choice([-1.0, 1.0], size=k)
                              * (np.abs(trial_rng.standard_normal(k)) + 0.5))
                inst = emp.ProblemInstance(A=A, x_true=x, support=support,
                                           signs=np.sign(x[support]),
                                           y=A @ x, seed=0)
                rep = emp.solve_basis_pursuit(inst)
                if not rep.recovered:
                    failures.append(
                        f"matrix {idx}: strong k={k} holds but BP missed "
                        f"support {support.tolist()}"
                    )
                    break
    elapsed = time.time() - t0
    note = f"(k=1 held {held[1]}/50, k=2 held {held[2]}/50, {elapsed:.0f}s)"
    _report("8: exhaustive oracle implication chain", failures, note)
    assert elapsed < 600


def test_criterion_9_determinism(tmp_path):
    from l1lab import cli

    failures = []

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = cli.main(["curve", "--kind", "sectional", "--method", "direct",
                         "--alpha-grid", "0.2:0.4:0.1", "--out-file", str(out)])
        assert code == 0
    if out1.read_bytes() != out2.read_bytes():
        failures.append("curve files differ between identical runs")

    r1 = threshold_bisect(0.35, "sectional", "direct")
    r2 = threshold_bisect(0.35, "sectional", "direct")
    if r1 != r2:
        failures.append("threshold_bisect results differ between identical calls")

    rate1 = emp.weak_recovery_rate(0.8, 0.1, 60, 10, seed=4)
    rate2 = emp.weak_recovery_rate(0.8, 0.1, 60, 10, seed=4)
    if rate1 != rate2:
        failures.append("weak_recovery_rate differs between identical runs")

    from l1lab.parity import run_parity_audit

    a1 = json.dumps(run_parity_audit(samples=10, seed=1).to_dict(), sort_keys=True)
    a2 = json.dumps(run_parity_audit(samples=10, seed=1).to_dict(), sort_keys=True)
    if a1 != a2:
        failures.append("parity audit differs between identical runs")

    _report("9: determinism end to end", failures)
