"""Monte Carlo and exhaustive verification of the threshold predictions.

Random Gaussian instances, basis-pursuit recovery (general and
nonnegative), and exact null-space-property oracles at small scale:

* solve_basis_pursuit is an operator-splitting (ADMM) iteration on the
  equality-constrained l1 program; the x-update projects onto {x: Ax = y}
  through the reduced QR of A^T, the z-update is a (one-sided, when
  nonnegative) soft threshold.  Every CERT_EVERY iterations it tries a dual
  certificate (Fuchs 2004; Candes, Romberg & Tao 2006) that the planted x*
  is the unique minimizer: A_S injective on the support S of x* and some
  v in range(A^T) with v_S = sign(x*_S), |v_i| < 1 off S (v_i < 1 when
  nonnegative).  The candidate v is the scaled dual, a subgradient of the
  l1 term, projected onto {v in range(A^T) : v_S = sign(x*_S)}; a solve
  still open after CERT_SEARCH_AFTER iterations also tries the v of that
  face with the smallest max |v_i| off S, from one LP.  A proven hit stops
  there and returns x* itself; otherwise the solve runs to convergence and
  a tolerance decides.  Its optimality is cross-checked in the tests
  against an exact LP reformulation.

* sectional/strong null-space oracles decide the exact conditions, with no
  LP, from one enumeration of the vertices of null(A) ∩ B_1 (a convex
  function peaks over a polytope at a vertex; each vertex is, up to scale,
  the null vector vanishing on some d - 1 = n - m - 1 coordinates); the
  complete QR of A^T gives an orthonormal null basis.  The last matrix's
  vertices are kept (when they fit in _BATCH_ELEMS floats), so the many
  supports, sign models and k asked of one matrix cost one enumeration.

Both take their LAPACK QR from _row_qr, which refuses a non-finite or
row-rank-deficient A.

weak_trials runs the Monte Carlo trials of weak_recovery_rate,
fifty_percent_alpha and `verify --mode weak`: seeded instances, each solved
with the l1 cutoff fail_below_l1 just under ||x*||_1 and the caller's
Config.  The cutoff proves a miss for the general-sign program only; under
nonneg its iterate can have negative entries, so a trial it ends may be a
certified hit (see solve_basis_pursuit).

Everything is seeded and deterministic; per-trial seeds are derived from
the caller's seed so results do not depend on execution order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.optimize as sopt

from .config import DEFAULT, Config
from .errors import DimensionError, DomainError, RankDeficientError, SolverStalledError

# exhaustive-regime caps: the oracles enumerate C(n, m+1) vertex candidates
# (2.2 s for the 735,471 of a 7 x 24 matrix on one BLAS thread); n bounds
# the matrix itself, since m = n - 1 has a single candidate
NULLSPACE_CAP_N = 24
CANDIDATE_CAP = 1_000_000

# rounding allowance on the unit-l1 scale of the vertex candidates: a margin,
# a candidate's sum or one of its entries within it of zero counts as zero
MARGIN_SLACK = 1e-9
_BATCH_ELEMS = 1 << 20     # floats per level batch of the vertex enumeration

# basis pursuit tries the dual certificate every CERT_EVERY iterations and on
# the one that converges, and searches the face once at CERT_SEARCH_AFTER
# (past every hit the dual certifies and almost every l1 cutoff at n = 200);
# it accepts when |v_S - sign(x*_S)| <= _CERT_FACE_TOL and max |v_i| off the
# support < 1 - _CERT_MARGIN, a strict margin far above the rounding of v
CERT_EVERY = 10
CERT_SEARCH_AFTER = 1000
_CERT_FACE_TOL = 1e-12
_CERT_MARGIN = 1e-9


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
    """One basis-pursuit solve.  decided_by says what ended it: "certificate"
    (x* is proven the unique minimizer and `x` is x*), "l1_cutoff" (a
    feasible point beat x*'s l1 norm, see fail_below_l1) or "tolerance"
    (convergence, then ||x - x*|| / ||x*|| <= recovery_tol decides)."""

    recovered: bool
    rel_error: float
    solver_iterations: int
    residual: float
    x: np.ndarray = field(compare=False, repr=False)
    decided_by: str = "tolerance"


def generate_instance(n: int, m: int, k: int, nonneg: bool = False,
                      seed: int = 0) -> ProblemInstance:
    """Gaussian instance: A with i.i.d. N(0,1) entries, uniform support,
    nonzero magnitudes |N(0,1)| + 0.5 (bounded away from zero so the
    recovered/failed dichotomy is well separated), uniform signs unless
    nonnegative.  Deterministic in `seed`, an integer >= 0."""
    _require_integers(n=n, m=m, k=k)
    if not (0 <= k <= m < n):
        raise DimensionError(f"need 0 <= k <= m < n, got n={n}, m={m}, k={k}")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    support = np.sort(rng.choice(n, size=k, replace=False))
    signs = np.ones(k) if nonneg else rng.choice([-1.0, 1.0], size=k)
    magnitudes = np.abs(rng.standard_normal(k)) + 0.5
    x = np.zeros(n)
    x[support] = signs * magnitudes
    return ProblemInstance(A=A, x_true=x, support=support, signs=signs,
                           y=A @ x, seed=seed)


def _require_integers(**dims):
    for name, value in dims.items():
        if not isinstance(value, (int, np.integer)):
            raise DimensionError(f"need an integer {name}, got {value!r}")


def _require_seed(seed):
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"need an integer seed >= 0, got {seed!r}")


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"need a finite {name}, got {value}")


def _norm(v):
    """np.linalg.norm of a 1-D float vector (the same dot, then sqrt),
    without its per-call argument handling."""
    return math.sqrt(v.dot(v))


def _soft_threshold(v, thresh):
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def _row_qr(A: np.ndarray, mode: str):
    """(Q, R) = np.linalg.qr(A^T, mode), "reduced" or "complete", for an
    m x n matrix A.  Raises DomainError if A holds a NaN or an infinity, and
    RankDeficientError unless A has full row rank: when m > n, or when
    min |R_ii| <= max |R_ii| * max(m, n) * eps (numpy's matrix_rank
    tolerance on the diagonal of R)."""
    m, n = A.shape
    if not np.isfinite(A).all():
        raise DomainError(f"the {m} x {n} matrix A has a non-finite entry")
    Q, R = np.linalg.qr(A.T, mode=mode)
    diag = np.abs(np.diag(R))
    if m > n or (m and diag.min() <= diag.max() * max(m, n) * np.finfo(float).eps):
        raise RankDeficientError(f"the {m} x {n} matrix A does not have full row rank")
    return Q, R


def _affine_projector(A: np.ndarray, y: np.ndarray):
    """(project, Q): the Euclidean projection onto {x : Ax = y} as a closure,
    and the orthonormal basis Q of range(A^T) it projects with.

    With the reduced QR A^T = QR of _row_qr (Q n x m with orthonormal
    columns), A^T (A A^T)^-1 (Av - y) = Q (Q^T v - c) where c = R^-T y, so
    each call is two small matrix-vector products."""
    Q, R = _row_qr(A, "reduced")
    c = sla.solve_triangular(R, y, trans="T", check_finite=False)
    Qt = Q.T

    def project(v):
        return v - Q @ (Qt @ v - c)

    return project, Q


def _dual_certificate(Q: np.ndarray, inst: ProblemInstance, nonneg: bool):
    """(certifies, search) for the planted x* (support S and signs s read
    from the nonzeros of inst.x_true): `certifies(g)` is True when g,
    projected onto the face {v in range(Q) : v_S = s}, is a dual
    certificate, which proves x* the unique minimizer of the basis-pursuit
    program; `search()` is certifies() of the face point with the smallest
    max |v_i| off S (max v_i when nonneg).  None when no certificate can
    apply: y is not A x*, x* has a negative entry under nonneg, or A_S is
    not injective.

    rank A_S = rank Q_S, and with Q_S^T = Q' R' the projection in the
    coordinates t of v = Q t is the affine projection onto {t : Q_S t = s},
    built once by _affine_projector (whose rank check refuses a
    non-injective A_S); a check is then four matrix-vector products.  The
    search is one LP over t = t0 + N r, N a null basis of Q_S: it only
    proposes v, and certifies() decides."""
    A, x, y = inst.A, inst.x_true, inst.y
    if not _norm(A @ x - y) <= 1e-12 * max(_norm(y), 1.0):
        return None
    if nonneg and not x.min() >= 0.0:
        return None
    S = np.flatnonzero(x)
    s = np.sign(x[S])
    try:
        to_face = _affine_projector(Q[S], s)[0]
    except RankDeficientError:
        return None
    off = np.ones(len(x), dtype=bool)
    off[S] = False
    Qt = Q.T

    def certifies(g):
        v = Q @ to_face(Qt @ g)
        if not np.abs(v[S] - s).max(initial=0.0) <= _CERT_FACE_TOL:
            return False
        rest = v[off] if nonneg else np.abs(v[off])
        return bool(rest.max(initial=0.0) < 1.0 - _CERT_MARGIN)

    def search():
        # minimize tau over (r, tau >= 0) with -tau <= b + M r <= tau
        # (the lower side dropped when nonneg), b + M r = v_off
        t0 = to_face(np.zeros(Q.shape[1]))
        N = _null_basis(Q[S])
        M, b = Q[off] @ N, Q[off] @ t0
        sides = (1.0,) if nonneg else (1.0, -1.0)
        A_ub = np.vstack([np.hstack([side * M, -np.ones((len(b), 1))]) for side in sides])
        b_ub = np.concatenate([-side * b for side in sides])
        cost = np.zeros(N.shape[1] + 1)
        cost[-1] = 1.0
        res = sopt.linprog(cost, A_ub=A_ub, b_ub=b_ub, method="highs",
                           bounds=[(None, None)] * N.shape[1] + [(0.0, None)])
        return res.status == 0 and certifies(Q @ (t0 + N @ res.x[:-1]))

    return certifies, search


def solve_basis_pursuit(inst: ProblemInstance, nonneg: bool = False,
                        config: Config = DEFAULT,
                        fail_below_l1: float | None = None) -> RecoveryReport:
    """min ||x||_1 s.t. Ax = y (plus x >= 0 when nonneg) by ADMM.

    Splitting: x carries the affine constraint (projection through the
    reduced QR of A^T of _affine_projector, built once), z carries the l1
    term (soft threshold), with over-relaxation and residual-balancing
    updates of the penalty.  Raises SolverStalledError at config.bp_max_iter
    iterations and, before any iteration, DomainError when A or y holds a
    NaN or an infinity and RankDeficientError when A is numerically row-rank
    deficient.  The report carries the returned point as `x`.

    Every CERT_EVERY iterations, and on the one that converges, the scaled
    dual rho*u (a subgradient of the l1 term at z) is tested as a dual
    certificate of inst.x_true (_dual_certificate); at iteration
    CERT_SEARCH_AFTER the best candidate of the face is tested once, for
    the nearly degenerate hits whose dual iterates approach every strict
    certificate from outside.  When a test proves x* the unique minimizer
    the solve stops there and returns x = x*, rel_error 0 and decided_by
    "certificate": the exact minimizer, so the check is always on.  It never applies when y is not A x*, when x* has a negative
    entry under nonneg or when A is not injective on the support of x*;
    without it the convergence and tolerance rule decides ("tolerance").

    fail_below_l1 is an opt-in early exit for recovery-rate experiments:
    the x iterate satisfies Ax = y at every step, so once its l1 norm drops
    below the planted vector's, the trial stops as a miss ("l1_cutoff")
    without waiting for full convergence.  For the general-sign program
    that proves the planted vector is not the optimum.  Under nonneg it
    does not: the iterate can have negative entries, so it lies outside the
    feasible set.  At n = 100, m = 26, k = 10 and seed
    1806050767184116235 the certificate proves x* at iteration 40, but the
    cutoff fires at iteration 19 on an iterate with a minimum entry of
    -0.087 and ||x||_1 = 15.9618 < ||x*||_1 = 15.9634.  Within 0.02 of
    the nonnegative weak curve at beta = 0.1, 4-5 of 180 trials at n = 60
    were such certified hits ended as misses, and 0 of 180 at n = 200.
    The returned point is not optimal either way; leave the parameter None
    whenever the minimizer itself is wanted.
    """
    A, y = inst.A, inst.y
    if not np.isfinite(y).all():
        raise DomainError("the measurement vector y has a non-finite entry")
    n = A.shape[1]
    tol = config.bp_tol
    project, Q = _affine_projector(A, y)
    certifies, search = _dual_certificate(Q, inst, nonneg) or (None, None)
    x = project(np.zeros(n))        # least-norm feasible point
    z = x.copy()
    u = np.zeros(n)
    rho = 1.0
    relax = 1.8
    scale = max(1.0, float(np.linalg.norm(x)))
    decided_by = "tolerance"
    for it in range(1, config.bp_max_iter + 1):
        x_new = project(z - u)
        if fail_below_l1 is not None and float(np.abs(x_new).sum()) < fail_below_l1:
            z = x_new
            decided_by = "l1_cutoff"
            break
        x_relaxed = relax * x_new + (1.0 - relax) * z
        w = x_relaxed + u
        if nonneg:
            z_new = np.maximum(w - 1.0 / rho, 0.0)
        else:
            z_new = _soft_threshold(w, 1.0 / rho)
        primal = _norm(x_new - z_new)
        dual = rho * _norm(z_new - z)
        u = w - z_new
        z = z_new
        converged = primal <= tol * scale and dual <= tol * scale
        if certifies is not None and (
                (converged or it % CERT_EVERY == 0) and certifies(rho * u)
                or it == CERT_SEARCH_AFTER and search()):
            decided_by = "certificate"
            break
        if converged:
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
            f"basis pursuit did not reach tol={tol} within {config.bp_max_iter} iterations"
        )

    # the proven minimizer, or a point exactly feasible and sparse up to the
    # solver tolerance
    x_hat = inst.x_true.copy() if decided_by == "certificate" else project(z)
    denom = float(np.linalg.norm(inst.x_true))
    err = float(np.linalg.norm(x_hat - inst.x_true))
    rel_error = err / denom if denom > 0 else float(np.linalg.norm(x_hat))
    residual = float(np.linalg.norm(A @ x_hat - y) / max(np.linalg.norm(y), 1.0))
    return RecoveryReport(
        recovered=bool(rel_error <= config.recovery_tol),
        rel_error=rel_error,
        solver_iterations=it,
        residual=residual,
        x=x_hat,
        decided_by=decided_by,
    )


def trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Per-trial instance seeds derived deterministically from one seed, an
    integer >= 0."""
    _require_seed(seed)
    return np.random.default_rng(seed).integers(0, 2 ** 62, size=trials)


def weak_trials(alpha: float, beta: float, n: int, trials: int,
                nonneg: bool = False, seed: int = 0, config: Config = DEFAULT):
    """Yield (instance, outcome) for each of the `trials` seeded instances at
    m = round(alpha*n), k = round(beta*n).  Each is solved with `config`
    and the l1 cutoff just under ||x*||_1 (fail_below_l1); the outcome is
    the RecoveryReport, or the SolverStalledError or RankDeficientError
    that ended the trial.  The arguments are checked before the first
    trial."""
    _require_finite(alpha=alpha, beta=beta)
    _require_integers(n=n)
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError(f"need an integer trials >= 1, got {trials!r}")
    m = int(round(alpha * n))
    k = int(round(beta * n))
    if not (1 <= k <= m < n):
        raise DimensionError(
            f"need round(alpha*n) >= round(beta*n) >= 1 and m < n, got m={m}, k={k}, n={n}"
        )
    for s in trial_seeds(seed, trials):
        inst = generate_instance(n, m, k, nonneg=nonneg, seed=int(s))
        cutoff = (1.0 - 1e-9) * float(np.abs(inst.x_true).sum())
        try:
            outcome = solve_basis_pursuit(inst, nonneg=nonneg, config=config,
                                          fail_below_l1=cutoff)
        except (SolverStalledError, RankDeficientError) as exc:
            outcome = exc
        yield inst, outcome


def weak_recovery_rate(alpha: float, beta: float, n: int, trials: int,
                       nonneg: bool = False, seed: int = 0,
                       config: Config = DEFAULT) -> float:
    """Fraction of the weak_trials that recovered x*.

    Solver failures (stall, rank deficiency) count as failed recoveries with
    a warning; they do not abort the experiment.
    """
    hits = stalls = deficient = 0
    for _, out in weak_trials(alpha, beta, n, trials, nonneg=nonneg, seed=seed, config=config):
        stalls += isinstance(out, SolverStalledError)
        deficient += isinstance(out, RankDeficientError)
        hits += isinstance(out, RecoveryReport) and out.recovered
    if stalls or deficient:
        warnings.warn(
            f"{stalls}/{trials} trials hit the solver budget and {deficient}/{trials} drew "
            f"a row-rank-deficient A; all counted as misses (alpha={alpha}, beta={beta}, n={n})")
    return hits / trials


def fifty_percent_alpha(beta: float, n: int, trials: int, nonneg: bool = False,
                        seed: int = 0, tol_alpha: float = 0.01,
                        config: Config = DEFAULT) -> float:
    """Monte Carlo estimate of the 50%-recovery alpha at fixed beta, by
    bisection over alpha with common per-probe randomness."""
    _require_finite(beta=beta)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionError(f"need an integer n >= 1, got {n!r}")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError(f"need an integer trials >= 1, got {trials!r}")
    if not (math.isfinite(tol_alpha) and tol_alpha > 0):
        raise DomainError(f"need a finite tol_alpha > 0, got {tol_alpha}")
    lo = max(beta + 2.0 / n, 2.0 / n)
    hi = 1.0 - 1.0 / n
    if not lo < hi:
        raise DomainError(f"empty alpha bracket [{lo:.6g}, {hi:.6g}] at beta={beta}, n={n}")
    while hi - lo > tol_alpha:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is one float spacing wide
            break
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

def check_nullspace_size(m: int, n: int, k: int) -> None:
    """Raise DimensionError unless the exact oracles accept an m x n matrix
    and supports of integer size k.  O(1), so callers can check before they
    build the matrix: math.comb runs only once n is within NULLSPACE_CAP_N."""
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= n:
        raise DimensionError(f"need 0 <= k <= n with k an integer, got n={n}, k={k!r}")
    if n > NULLSPACE_CAP_N:
        raise DimensionError(f"null-space oracles capped at n <= {NULLSPACE_CAP_N}; got n={n}")
    count = math.comb(n, m + 1) if m < n else 0
    if count > CANDIDATE_CAP:
        raise DimensionError(
            f"null-space oracles capped at {CANDIDATE_CAP} vertex candidates; an m x n "
            f"matrix has C(n, m+1) of them, got C({n}, {m + 1}) = {count} (m={m})")


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


def _null_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis (n x (n - m)) of null(A): the last n - m columns of
    the complete QR of A^T, rank-checked by _row_qr."""
    return _row_qr(A, "complete")[0][:, A.shape[0]:]


def _vertices(N: np.ndarray):
    """Yield, as rows of chunks, one null vector per set T of d - 1
    coordinates, zero on T and scaled to ||v||_1 = 1, from an orthonormal
    null basis N (n x d).  For full-rank N_T that is the vertex direction;
    otherwise it is still a point of null(A), whose vertices other sets
    reach, so no rank test is needed.  T grows one sorted coordinate t at
    a time, depth first in batches of about _BATCH_ELEMS floats; a node
    holds an orthonormal basis Z (d x q) of the c with (N c)_T = 0, and a
    Householder reflection of N_t Z onto the first axis leaves the child's
    basis in the other q - 1 columns."""
    n, d = N.shape
    if d == 1:
        yield N.T / np.abs(N).sum()
    if d < 2:
        return
    stack = [(np.array([-1]), np.eye(d)[None])]  # last coordinate of T, basis Z
    while stack:
        last, Z = stack.pop()
        q = Z.shape[2]
        # t runs over last+1 .. n-q+1, leaving room for the q-2 after it
        counts = n - q + 1 - last
        parent = np.repeat(np.arange(len(last)), counts)
        last = np.arange(parent.size) + np.repeat(last + 1 - (np.cumsum(counts) - counts), counts)
        Z = Z[parent]
        u = np.einsum("kd,kdq->kq", N[last], Z)        # the rows N_t Z
        if q == 2:
            # the leaf is Z (u_1, -u_0), the reflection's second column up to
            # scale; when N_t Z = 0, v_t = 0 already and Z's first column serves
            u[~u.any(axis=1)] = (0.0, -1.0)
            V = (Z[:, :, 0] * u[:, 1:] - Z[:, :, 1] * u[:, :1]) @ N.T
            yield V / np.abs(V).sum(axis=1, keepdims=True)
            continue
        u[:, 0] += np.copysign(np.sqrt(np.einsum("kq,kq->k", u, u)), u[:, 0])
        uu = np.einsum("kq,kq->k", u, u)
        u[uu == 0.0, 0] = 1.0                          # N_t Z = 0: v_t = 0 already
        uu[uu == 0.0] = 1.0
        Zu = np.einsum("kdq,kq->kd", Z, u)
        Z = Z[:, :, 1:] - (2.0 / uu)[:, None, None] * Zu[:, :, None] * u[:, None, 1:]
        rows = max(1, _BATCH_ELEMS // (n * d * q))
        stack.extend((last[lo:lo + rows], Z[lo:lo + rows]) for lo in range(0, len(last), rows))


def _oriented_negatives(V: np.ndarray) -> np.ndarray:
    # negative-entry masks of the candidates oriented to a negative sum; one
    # whose sum is within MARGIN_SLACK of zero witnesses nothing
    s = V.sum(axis=1, keepdims=True)
    return (V * -np.sign(s) < -MARGIN_SLACK)[np.abs(s[:, 0]) > MARGIN_SLACK]


# (key, chunks) of the last matrix whose vertices fit in _BATCH_ELEMS floats
_memo = (None, ())


def _candidates(A: np.ndarray, k: int):
    # size check (it depends on k, so it runs on every call), then the
    # vertex chunks of null(A) ∩ B_1: the stored ones when A equals the last
    # enumerated matrix byte for byte, else a fresh, rank-checked enumeration,
    # stored when it fits in _BATCH_ELEMS floats and streamed otherwise
    global _memo
    m, n = A.shape
    check_nullspace_size(m, n, k)
    key = (A.shape, A.dtype.str, A.tobytes())   # tobytes is in C order
    if _memo[0] == key:
        return _memo[1]
    chunks = _vertices(_null_basis(A))
    if math.comb(n, m + 1) * n > _BATCH_ELEMS:
        return chunks
    chunks = tuple(chunks)
    for V in chunks:
        V.flags.writeable = False
    _memo = (key, chunks)
    return chunks


def strong_nullspace_margin(A: np.ndarray, k: int) -> float:
    """theta_k - 1/2, where theta_k is the largest sum of the k biggest |v_i|
    over null(A) ∩ B_1: negative iff every nonzero null-space w has
    ||w_S||_1 < ||w_complement||_1 on every support S of size k."""
    return float(max((np.sort(np.abs(V), axis=1)[:, ::-1][:, :k].sum(axis=1).max()
                      for V in _candidates(A, k)), default=0.0)) - 0.5


def sectional_nullspace_margin(A: np.ndarray, support) -> float:
    """max ||v_support||_1 over null(A) ∩ B_1, minus 1/2: negative iff every
    nonzero null-space w has ||w_support||_1 < ||w_complement||_1."""
    support = _support_indices(support, A.shape[1])
    return float(max((np.abs(V[:, support]).sum(axis=1).max()
                      for V in _candidates(A, len(support))), default=0.0)) - 0.5


def sectional_nullspace_holds(A: np.ndarray, support, nonneg: bool = False) -> bool:
    """True iff every nonzero null-space w has ||w_support||_1 <
    ||w_complement||_1, i.e. the margin is at most MARGIN_SLACK.  With
    nonneg: every null-space w that is nonnegative off the support has
    sum(w) >= 0.  That fails iff some vertex, oriented to a negative sum,
    has all its negative entries in the support (a violating w is a
    conformal sum of vertex directions, one of which then violates)."""
    if not nonneg:
        return sectional_nullspace_margin(A, support) <= MARGIN_SLACK
    support = _support_indices(support, A.shape[1])
    off = np.ones(A.shape[1], dtype=bool)
    off[support] = False
    return not any((~_oriented_negatives(V)[:, off].any(axis=1)).any()
                   for V in _candidates(A, len(support)))


def strong_nullspace_holds(A: np.ndarray, k: int, nonneg: bool = False) -> bool:
    """True iff the support-level property holds for every support of size
    k: the margin is at most MARGIN_SLACK, or, with nonneg, no vertex
    oriented to a negative sum has k or fewer negative entries."""
    check_nullspace_size(*A.shape, k)
    if k == 0:
        return True
    if not nonneg:
        return strong_nullspace_margin(A, k) <= MARGIN_SLACK
    return not any((_oriented_negatives(V).sum(axis=1) <= k).any()
                   for V in _candidates(A, k))
