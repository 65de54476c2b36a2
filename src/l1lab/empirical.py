"""Monte Carlo and exhaustive verification of the threshold predictions.

Random Gaussian instances, basis-pursuit recovery (general and
nonnegative), and exact null-space-property oracles at small scale:

* solve_basis_pursuit is an operator-splitting (ADMM) iteration on the
  equality-constrained l1 program; the x-update projects onto {x: Ax = y}
  through a precomputed Cholesky factor of A A^T, the z-update is a
  (one-sided, when nonnegative) soft threshold.  Its optimality is
  cross-checked in the tests against an exact LP reformulation.

* sectional/strong null-space oracles decide the exact combinatorial
  conditions by one small LP on {A w = 0, |w|_inf <= 1} per sign pattern
  (per support, when nonnegative), with w split off the support as p - q.
  The box stands in for the unit sphere: strict positivity of the optimum
  is scale-invariant, so the answer is the same and each program is an LP.

Everything is seeded and deterministic; per-trial seeds are derived from
the caller's seed so results do not depend on execution order.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linprog

from .config import DEFAULT, Config
from .errors import DimensionError, DomainError, RankDeficientError, SolverStalledError

# exhaustive-regime caps: beyond these the enumeration is combinatorially
# out of reach and the oracles refuse to pretend otherwise
SECTIONAL_CAP_N = 24
SECTIONAL_CAP_K = 8
STRONG_CAP_N = 18
STRONG_CAP_K = 4

_LP_SLACK = 1e-9


@dataclass(frozen=True)
class ProblemInstance:
    """One random under-determined system with a planted sparse solution."""

    A: np.ndarray
    x_true: np.ndarray
    support: np.ndarray
    signs: np.ndarray
    y: np.ndarray
    seed: int

    @property
    def shape(self):
        return self.A.shape

    @property
    def k(self):
        return len(self.support)


@dataclass(frozen=True)
class RecoveryReport:
    recovered: bool
    rel_error: float
    solver_iterations: int
    residual: float


def generate_instance(n: int, m: int, k: int, nonneg: bool = False,
                      seed: int = 0) -> ProblemInstance:
    """Gaussian instance: A with i.i.d. N(0,1) entries, uniform support,
    nonzero magnitudes |N(0,1)| + 0.5 (bounded away from zero so the
    recovered/failed dichotomy is well separated), uniform signs unless
    nonnegative.  Deterministic in `seed`."""
    if not (0 <= k <= m < n):
        raise DimensionError(f"need 0 <= k <= m < n, got n={n}, m={m}, k={k}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    support = np.sort(rng.choice(n, size=k, replace=False))
    signs = np.ones(k) if nonneg else rng.choice([-1.0, 1.0], size=k)
    magnitudes = np.abs(rng.standard_normal(k)) + 0.5
    x = np.zeros(n)
    x[support] = signs * magnitudes
    return ProblemInstance(A=A, x_true=x, support=support, signs=signs,
                           y=A @ x, seed=seed)


def _soft_threshold(v, thresh):
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def solve_basis_pursuit(inst: ProblemInstance, nonneg: bool = False,
                        config: Config = DEFAULT,
                        max_iter: int | None = None,
                        fail_below_l1: float | None = None) -> RecoveryReport:
    """min ||x||_1 s.t. Ax = y (plus x >= 0 when nonneg) by ADMM.

    Splitting: x carries the affine constraint (projection via the cached
    Cholesky factor of A A^T), z carries the l1 term (soft threshold), with
    over-relaxation and residual-balancing updates of the penalty.  Raises
    SolverStalledError at the iteration cap and RankDeficientError when
    A A^T is not positive definite.

    fail_below_l1 is an opt-in early-exit certificate for recovery-rate
    experiments: the x iterate is exactly feasible at every step, so once
    its l1 norm drops below the planted vector's, the planted vector is
    provably not the optimum and the trial can stop as a miss without
    waiting for full convergence.  The returned point is then feasible but
    not optimal; leave the parameter None whenever the minimizer itself is
    wanted.
    """
    A, y = inst.A, inst.y
    m, n = A.shape
    tol = config.bp_tol
    cap = config.bp_max_iter if max_iter is None else max_iter
    try:
        cho = sla.cho_factor(A @ A.T, check_finite=False)
    except sla.LinAlgError as exc:
        raise RankDeficientError(f"A A^T is not positive definite: {exc}") from exc

    def project(v):
        return v - A.T @ sla.cho_solve(cho, A @ v - y, check_finite=False)

    x = project(np.zeros(n))        # least-norm feasible point
    z = x.copy()
    u = np.zeros(n)
    rho = 1.0
    relax = 1.8
    scale = max(1.0, float(np.linalg.norm(x)))
    for it in range(1, cap + 1):
        x_new = project(z - u)
        if fail_below_l1 is not None and float(np.abs(x_new).sum()) < fail_below_l1:
            z = x_new
            break
        x_relaxed = relax * x_new + (1.0 - relax) * z
        if nonneg:
            z_new = np.maximum(x_relaxed + u - 1.0 / rho, 0.0)
        else:
            z_new = _soft_threshold(x_relaxed + u, 1.0 / rho)
        primal = float(np.linalg.norm(x_new - z_new))
        dual = float(rho * np.linalg.norm(z_new - z))
        u = u + x_relaxed - z_new
        z = z_new
        if primal <= tol * scale and dual <= tol * scale:
            break
        if it % 50 == 0:  # residual balancing keeps rho in a useful range
            if primal > 10.0 * dual:
                rho *= 2.0
                u *= 0.5
            elif dual > 10.0 * primal:
                rho *= 0.5
                u *= 2.0
    else:
        raise SolverStalledError(
            f"basis pursuit did not reach tol={tol} within {cap} iterations"
        )

    x_hat = project(z)  # exactly feasible, sparse up to the solver tolerance
    denom = float(np.linalg.norm(inst.x_true))
    err = float(np.linalg.norm(x_hat - inst.x_true))
    rel_error = err / denom if denom > 0 else float(np.linalg.norm(x_hat))
    residual = float(np.linalg.norm(A @ x_hat - y) / max(np.linalg.norm(y), 1.0))
    return RecoveryReport(
        recovered=bool(rel_error <= config.recovery_tol),
        rel_error=rel_error,
        solver_iterations=it,
        residual=residual,
    )


def trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Per-trial instance seeds derived deterministically from one seed."""
    return np.random.default_rng(seed).integers(0, 2 ** 62, size=trials)


def weak_recovery_rate(alpha: float, beta: float, n: int, trials: int,
                       nonneg: bool = False, seed: int = 0,
                       config: Config = DEFAULT) -> float:
    """Fraction of recovered instances at m = round(alpha*n), k = round(beta*n).

    Solver failures (stall, rank deficiency) count as failed recoveries with
    a warning; they do not abort the experiment.
    """
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    m = int(round(alpha * n))
    k = int(round(beta * n))
    if not (1 <= k <= m < n):
        raise DimensionError(
            f"need round(alpha*n) >= round(beta*n) >= 1 and m < n, got m={m}, k={k}, n={n}"
        )
    hits = 0
    stalls = 0
    for s in trial_seeds(seed, trials):
        inst = generate_instance(n, m, k, nonneg=nonneg, seed=int(s))
        cutoff = (1.0 - 1e-9) * float(np.abs(inst.x_true).sum())
        try:
            report = solve_basis_pursuit(inst, nonneg=nonneg, config=config,
                                         max_iter=8000, fail_below_l1=cutoff)
        except (SolverStalledError, RankDeficientError):
            stalls += 1
            continue
        hits += int(report.recovered)
    if stalls:
        warnings.warn(
            f"{stalls}/{trials} trials hit the solver budget and were counted "
            f"as misses (alpha={alpha}, beta={beta}, n={n})"
        )
    return hits / trials


def fifty_percent_alpha(beta: float, n: int, trials: int, nonneg: bool = False,
                        seed: int = 0, tol_alpha: float = 0.01,
                        config: Config = DEFAULT) -> float:
    """Monte Carlo estimate of the 50%-recovery alpha at fixed beta, by
    bisection over alpha with common per-probe randomness."""
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    lo = max(beta + 2.0 / n, 2.0 / n)
    hi = 1.0 - 1.0 / n
    while hi - lo > tol_alpha:
        mid = 0.5 * (lo + hi)
        rate = weak_recovery_rate(mid, beta, n, trials, nonneg=nonneg,
                                  seed=seed, config=config)
        if rate >= 0.5:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# exhaustive null-space oracles
# --------------------------------------------------------------------------

def _support_holds(A: np.ndarray, support: np.ndarray, nonneg: bool) -> bool:
    """Exact support-level null-space property of A on one sorted support.

    For each sign pattern b on the support, maximize b . w_support - sum(p + q)
    over A_support w_support + A_off (p - q) = 0, |w_support|_inf <= 1 and
    p, q in [0, 1].  At an optimum p . q = 0, so sum(p + q) = ||w_off||_1.
    The property holds iff every optimum is (up to LP slack) nonpositive: a
    strictly positive optimum scales to a violating direction on the sphere
    and vice versa.  The nonnegative model drops q (q = 0) and takes the
    single pattern b = -1: no null-space w that is nonnegative off the
    support has a negative sum.
    """
    m, n = A.shape
    k = len(support)
    if k == 0 or m == n:  # vacuous, or null(A) = {0} at full row rank
        return True
    A_off = np.delete(A, support, axis=1)
    A_eq = np.hstack([A[:, support], A_off] if nonneg else [A[:, support], A_off, -A_off])
    bounds = [(-1, 1)] * k + [(0, 1)] * (A_eq.shape[1] - k)
    # b and -b give the same optimum (w -> -w), so fix the first sign
    patterns = ([(-1.0,) * k] if nonneg else
                [(1.0,) + rest for rest in itertools.product((1.0, -1.0), repeat=k - 1)])
    for b in patterns:
        cost = np.concatenate([-np.array(b), np.ones(A_eq.shape[1] - k)])
        res = linprog(cost, A_eq=A_eq, b_eq=np.zeros(m), bounds=bounds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"null-space LP failed with status {res.status}: {res.message}")
        if -float(res.fun) > _LP_SLACK:
            return False
    return True


def check_nullspace_size(mode: str, n: int, k: int) -> None:
    """Raise DimensionError unless the exact oracle of `mode` ("sectional"
    or "strong") accepts n columns and supports of integer size k. Cheap, so
    callers can check before they build an n-column matrix."""
    cap_n, cap_k = ((SECTIONAL_CAP_N, SECTIONAL_CAP_K) if mode == "sectional"
                    else (STRONG_CAP_N, STRONG_CAP_K))
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= n:
        raise DimensionError(f"need 0 <= k <= n with k an integer, got n={n}, k={k!r}")
    if n > cap_n or k > cap_k:
        raise DimensionError(
            f"{mode} oracle capped at n <= {cap_n}, k <= {cap_k}; got n={n}, k={k}"
        )


def _support_indices(support, n: int) -> np.ndarray:
    """`support` as sorted column indices; DimensionError unless they are
    distinct integers in [0, n)."""
    idx = np.asarray(support)
    if idx.size == 0:
        return np.zeros(0, dtype=int)
    if not (idx.ndim == 1 and np.issubdtype(idx.dtype, np.integer)
            and 0 <= idx.min() and idx.max() < n and len(np.unique(idx)) == len(idx)):
        raise DimensionError(f"support must hold distinct integer indices in [0, {n}), "
                             f"got {support!r}")
    return np.sort(idx)


def sectional_nullspace_holds(A: np.ndarray, support, nonneg: bool = False) -> bool:
    """True iff every nonzero null-space direction w satisfies
    ||w_support||_1 < ||w_complement||_1 (decided exactly by LPs).  With
    nonneg, the property for nonnegative unknowns instead: every null-space
    w that is nonnegative off the support has sum(w) >= 0."""
    m, n = A.shape
    support = _support_indices(support, n)
    check_nullspace_size("sectional", n, len(support))
    if np.linalg.matrix_rank(A) < m:
        raise RankDeficientError("A must have full row rank")
    return _support_holds(A, support, nonneg)


def strong_nullspace_holds(A: np.ndarray, k: int, nonneg: bool = False) -> bool:
    """True iff the support-level property holds for every support of size k
    (sign patterns enumerated inside; for the nonnegative variant the
    feasible cone per support is one-sided, so one LP per support)."""
    m, n = A.shape
    check_nullspace_size("strong", n, k)
    if k == 0:
        return True
    if np.linalg.matrix_rank(A) < m:
        raise RankDeficientError("A must have full row rank")
    return all(_support_holds(A, np.array(support), nonneg)
               for support in itertools.combinations(range(n), k))
