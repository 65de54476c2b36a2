"""Shared skeleton of the lifted exponential-moment bounds.

Every threshold kind (sectional, strong, nonnegative strong) certifies a
sparsity ratio beta as achievable at aspect ratio alpha by exhibiting lift
parameters (c3, gamma, nu...) for which

    total = -c3/2 + I_set(c3, beta) + I_sph(c3, alpha) < 0.

I_sph is the unit-sphere contribution, identical for all kinds and available
in closed form through its optimal scale gamma_hat.  I_set is kind-specific
and built from per-coordinate Gaussian expectations of a piecewise exponent;
this module provides the quadrature oracle that evaluates any such set term
directly from its exponent definition, which is the authoritative value the
kind modules' closed forms are validated against.

The direct (c3 -> 0) bounds arise as the limit of the same family, so the
lifted threshold can never fall below the direct one beyond bisection noise.

threshold_bisect turns a feasibility condition into the threshold curve
beta(alpha) by bisection on beta, with warm-started inner minimizations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT, Config
from .errors import (
    ConstraintViolatedError,
    DomainError,
    L1LabError,
    NonMonotoneWarning,
)
from .numerics import nelder_mead

KINDS = ("weak", "sectional", "strong", "weak_nonneg", "strong_nonneg")
METHODS = ("direct", "lifted")

BETA_FLOOR = 1e-4
_BETA_CAPS = {
    "weak": 1.0 - 1e-6,
    "weak_nonneg": 1.0 - 1e-6,
    "sectional": 0.9999,
    # strong set definitions need k <= n/2
    "strong": 0.5 - 1e-9,
    "strong_nonneg": 0.5 - 1e-9,
}

LOG_C3_MIN = math.log(1e-4)
LOG_C3_MAX = math.log(400.0)
B_MAX = 0.4999995
# search boxes of (nu1, nu2); a kind with one multiplier uses the first
_NU_BOUNDS = ((0.0, 14.0), (0.0, 400.0))
# Nelder-Mead evaluation budgets of a quick bisection probe and of a
# thorough (or near-boundary) search
QUICK_MAX_ITER = 1500
THOROUGH_MAX_ITER = 5000


class ThresholdRangeError(L1LabError):
    """The threshold lies outside the bisection range [BETA_FLOOR, cap]."""


@dataclass(frozen=True)
class LiftParams:
    """Free variables of a lifted bound at one parameter point.

    nu2 is unused (zero) for the sectional kind, where only one multiplier
    appears.  The exponential moments converge iff b = c3/(4*gamma) < 1/2,
    equivalently gamma > c3/2.
    """

    c3: float
    gamma: float
    nu1: float = 0.0
    nu2: float = 0.0

    @property
    def b(self) -> float:
        return self.c3 / (4.0 * self.gamma)

    def require_convergent(self):
        if not self.gamma > 0 or not self.b < 0.5:
            raise ConstraintViolatedError(
                f"need c3/(4*gamma) < 1/2, got b={self.b!r} (c3={self.c3}, gamma={self.gamma})"
            )

    def to_dict(self) -> dict:
        return {"c3": self.c3, "gamma": self.gamma, "nu1": self.nu1, "nu2": self.nu2}


@dataclass(frozen=True)
class SphereTerm:
    """The sphere contribution at (c3, alpha): optimal scale and value."""

    c3: float
    alpha: float
    gamma_hat: float
    value: float


@dataclass(frozen=True)
class BoundEvaluation:
    """The three terms of the master condition and their sum at one point."""

    c3: float
    i_set: float
    i_sph: float
    total: float

    @property
    def feasible(self) -> bool:
        return self.total < 0.0


@dataclass(frozen=True)
class ThresholdResult:
    alpha: float
    beta: float
    method: str
    kind: str
    params_at_optimum: LiftParams | None
    condition_margin: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "kind": self.kind,
            "method": self.method,
            "condition_margin": self.condition_margin,
            "params_at_optimum": (
                self.params_at_optimum.to_dict() if self.params_at_optimum else None
            ),
        }


def sphere_gamma_hat(c3: float, alpha: float) -> float:
    """Optimal (negative) sphere scale: (2*c3 - sqrt(4*c3**2 + 16*alpha)) / 8.

    Evaluated in the cancellation-free form -2*alpha / (2*c3 + sqrt(...)),
    exact for c3 = 0 as well (limit -sqrt(alpha)/2).
    """
    if c3 < 0 or alpha <= 0:
        raise DomainError("need c3 >= 0 and alpha > 0")
    root = math.sqrt(4.0 * c3 * c3 + 16.0 * alpha)
    return -2.0 * alpha / (2.0 * c3 + root)


def i_sph(c3: float, alpha: float) -> float:
    """Sphere term gamma_hat - alpha/(2*c3) * log(1 - c3/(2*gamma_hat)).

    Requires c3 > 0; the c3 -> 0 limit is -sqrt(alpha) (see sphere_term).
    The log argument exceeds 1 because gamma_hat < 0, so the expression is
    total on the stated domain.
    """
    if c3 <= 0:
        raise DomainError("i_sph requires c3 > 0; use sphere_term for the c3=0 limit")
    g = sphere_gamma_hat(c3, alpha)
    return g - alpha / (2.0 * c3) * math.log1p(-c3 / (2.0 * g))


def sphere_term(c3: float, alpha: float) -> SphereTerm:
    """SphereTerm at (c3, alpha), handling c3 = 0 by its analytic limit."""
    g = sphere_gamma_hat(c3, alpha)
    value = -math.sqrt(alpha) if c3 == 0 else i_sph(c3, alpha)
    return SphereTerm(c3=c3, alpha=alpha, gamma_hat=g, value=value)


def master_condition(i_set: float, c3: float, alpha: float) -> BoundEvaluation:
    """Assemble total = -c3/2 + i_set + i_sph(c3, alpha)."""
    if not math.isfinite(i_set):
        raise DomainError("i_set must be finite")
    sph = i_sph(c3, alpha)
    return BoundEvaluation(c3=c3, i_set=i_set, i_sph=sph, total=-0.5 * c3 + i_set + sph)


# --------------------------------------------------------------------------
# quadrature oracle for exponential set terms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpPiece:
    """One weighted log-expectation (weight/c3) * log E exp(c3 * t(h)).

    t must be vectorized; breakpoints list the kinks of t so quadrature
    panels can be aligned to them; half_width is the window (in h) outside
    which exp(c3*t(h)) * exp(-h**2/2) is negligible.
    """

    weight: float
    t: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...]
    half_width: float


def exp_set_term_oracle(integrand_spec, params: LiftParams, beta: float,
                        rel_tol: float = 1e-9) -> float:
    """Set term evaluated by quadrature straight from the exponent definition.

    integrand_spec(params, beta) must return (linear, pieces) where linear
    collects the terms outside the expectations (gamma, multiples of nu) and
    pieces is a sequence of ExpPiece.  This is the authoritative evaluation
    the closed forms are audited against.
    """
    from .numerics import QuadratureSpec, gauss_expectation

    params.require_convergent()
    linear, pieces = integrand_spec(params, beta)
    total = float(linear)
    c3 = params.c3
    for piece in pieces:
        spec = QuadratureSpec(
            half_width=max(piece.half_width, 6.0), panels=64, rel_tol=rel_tol
        )
        ev = gauss_expectation(
            lambda h: c3 * piece.t(h), spec, breakpoints=piece.breakpoints,
            g_is_log=True,
        )
        total += piece.weight / c3 * math.log(ev)
    return total


@dataclass(frozen=True)
class LiftedKind:
    """What one lifted bound adds to the shared master condition.

    set_term(c3, gamma, extras, beta) is the closed-form I_set on Python
    floats, extras = (nu1,) or (nu1, nu2), returning inf outside its domain;
    integrand(params, beta) is its description for exp_set_term_oracle;
    direct(beta) -> (root, nu1) is the direct (c3 -> 0) optimum, root being
    the value compared with sqrt(alpha); nu2(beta, nu1, gamma) is the second
    multiplier the direct optimum implies, None for a kind with one.

    No field may hold a function that tracers or tests rebind on its module
    (the direct minima, the moments): a reference taken here would bypass
    the rebinding, so each such call goes through a small module function.
    """

    set_term: Callable[[float, float, Sequence[float], float], float]
    integrand: Callable
    direct: Callable[[float], tuple[float, float]]
    nu2: Callable[[float, float, float], float] | None = None

    @property
    def n_extra(self) -> int:
        return 1 if self.nu2 is None else 2

    def set_term_at(self, beta: float, params: LiftParams) -> float:
        """The closed-form set term at explicit lift parameters; raises
        ConstraintViolatedError unless c3/(4*gamma) < 1/2."""
        params.require_convergent()
        extras = (params.nu1, params.nu2)[:self.n_extra]
        return self.set_term(params.c3, params.gamma, extras, beta)


# --------------------------------------------------------------------------
# inner minimization of the lifted total
# --------------------------------------------------------------------------

def c3_start_ladder(alpha: float) -> np.ndarray:
    """Log-spaced c3 starting points.

    The optimum is O(1) over most of the phase plane but migrates to large
    c3 (with b -> 1/2) as alpha -> 1, so the ladder is extended there.
    """
    pts = list(np.geomspace(1e-3, 8.0, 8))
    if alpha > 0.9:
        pts += [20.0, 60.0, 150.0]
    if alpha > 0.995:
        pts += [300.0]
    return np.asarray(pts)


def _total_objective(set_term, alpha, beta):
    """The master-condition total at x = [log c3, b, extras...] (a list of
    floats), with inf for points outside the convergent domain and for any
    non-finite set term or total."""
    def objective(x):
        c3 = math.exp(x[0])
        b = x[1]
        if not 0.0 < b < 0.5:
            return math.inf
        gamma = c3 / (4.0 * b)
        st = set_term(c3, gamma, x[2:], beta)
        if not math.isfinite(st):
            return math.inf
        val = -0.5 * c3 + st + i_sph(c3, alpha)
        return val if math.isfinite(val) else math.inf

    return objective


def minimize_lifted_total(
    set_term: Callable,
    alpha: float,
    beta: float,
    seeds: Sequence[np.ndarray],
    extra_bounds: Sequence[tuple],
    *,
    stop_below: float | None = None,
    xatol: float = 1e-10,
    fatol: float = 1e-12,
    maxiter: int = 3000,
) -> tuple[float, np.ndarray]:
    """Multi-start Nelder-Mead over x = [log c3, b, extras].

    set_term(c3, gamma, extras, beta) evaluates the kind's set term at fixed
    parameters on Python floats.  Seeds are tried in order; if stop_below is
    given the search stops as soon as some start drives the total under it
    (a certified upper bound on the minimum is enough to certify
    feasibility).  Returns the best (total, x) found; a nested polish over
    the non-c3 coordinates is applied to the winner since joint and nested
    searches can land in different local optima.

    The simplex is numerics.nelder_mead, which takes the same steps as
    scipy's bounded Nelder-Mead (ties in vertex order broken by np.argsort,
    as scipy does) while keeping every iterate a list of floats, so the
    solve returns the same bits at a fraction of the per-evaluation cost.
    """
    objective = _total_objective(set_term, alpha, beta)
    bounds = [(LOG_C3_MIN, LOG_C3_MAX), (1e-7, B_MAX), *extra_bounds]
    opts = {"xatol": xatol, "fatol": fatol, "maxiter": maxiter, "maxfev": maxiter}

    best_f, best_x = math.inf, None
    for seed in seeds:
        res = nelder_mead(objective, seed, bounds, **opts)
        if res.fun < best_f:
            best_f, best_x = res.fun, res.x
        if stop_below is not None and best_f < stop_below:
            return best_f, np.array(best_x)

    if best_x is not None and math.isfinite(best_f):
        # nested polish: inner parameters at fixed c3, then a joint restart
        fixed = best_x[0]

        def inner(y):
            return objective([fixed, *y])

        res_in = nelder_mead(inner, best_x[1:], bounds[1:], **opts)
        if res_in.fun < best_f:
            best_f = res_in.fun
            best_x = [fixed, *res_in.x]
        res = nelder_mead(objective, best_x, bounds, **opts)
        if res.fun < best_f:
            best_f, best_x = res.fun, res.x
    return best_f, None if best_x is None else np.array(best_x)


def direct_margin(kind: LiftedKind, alpha: float, beta: float) -> tuple[float, LiftParams]:
    """The direct (c3 -> 0) condition margin root - sqrt(alpha), with the
    direct optimum as c3 = 0 lift parameters (gamma = root/2)."""
    root, nu1 = kind.direct(beta)
    gamma = max(root, 1e-12) / 2.0
    nu2 = 0.0 if kind.nu2 is None else kind.nu2(beta, nu1, gamma)
    return root - math.sqrt(alpha), LiftParams(c3=0.0, gamma=gamma, nu1=nu1, nu2=nu2)


def lifted_seeds(kind: LiftedKind, alpha: float, beta: float,
                 warm: LiftParams | None) -> list[np.ndarray]:
    """Starting points x = [log c3, b, nu...] for the lifted search.

    The warm start (if it is a lifted point) comes first, then the c3
    ladder with gamma and the multipliers taken from the direct optimum,
    which the lifted family contains as its c3 -> 0 member; a kind with a
    large direct nu2 also gets a small-nu2 variant at three ladder rungs.
    """
    root, nu1 = kind.direct(beta)
    g0 = max(root, 1e-6) / 2.0
    nus = [nu1] if kind.nu2 is None else [nu1, min(kind.nu2(beta, nu1, g0), 400.0)]
    seeds = []
    if warm is not None and warm.c3 > 0:
        seeds.append(params_to_x(warm, kind.n_extra))
    ladder = c3_start_ladder(alpha)

    def at(c3, multipliers):
        b = min(max(c3 / (4.0 * g0), 1e-6), 0.49)
        return np.array([math.log(c3), b, *multipliers])

    seeds += [at(c3, nus) for c3 in ladder]
    if kind.nu2 is not None and nus[1] > 0.5:
        seeds += [at(c3, [nu1, 0.3])
                  for c3 in (ladder[0], ladder[len(ladder) // 2], ladder[-1])]
    return seeds


def lifted_margin(
    kind: LiftedKind,
    alpha: float,
    beta: float,
    warm: LiftParams | None,
    thorough: bool,
    config: Config = DEFAULT,
) -> tuple[float, LiftParams | None]:
    """Minimized lifted total at (alpha, beta): the kind's condition margin.

    Quick mode (bisection probes) stops as soon as any start certifies
    feasibility and escalates to the thorough search automatically whenever
    the quick result lands in the ambiguous band around zero, where
    under-minimization would misclassify feasibility.
    """
    eps = config.feasibility_margin
    bounds = _NU_BOUNDS[:kind.n_extra]
    seeds = lifted_seeds(kind, alpha, beta, warm)
    if thorough:
        f, x = minimize_lifted_total(
            kind.set_term, alpha, beta, seeds, bounds,
            stop_below=None, xatol=1e-11, fatol=1e-13, maxiter=THOROUGH_MAX_ITER,
        )
    else:
        f, x = minimize_lifted_total(
            kind.set_term, alpha, beta, seeds, bounds,
            stop_below=-eps, xatol=1e-10, fatol=1e-12, maxiter=QUICK_MAX_ITER,
        )
        if -eps <= f < 1e-3:
            # near the boundary: re-search tightly, warm-started from the
            # quick winner, with a thinned ladder as basin insurance
            refreshed = lifted_seeds(kind, alpha, beta,
                                     x_to_params(x) if x is not None else warm)
            f2, x2 = minimize_lifted_total(
                kind.set_term, alpha, beta, refreshed[:1] + refreshed[1::2], bounds,
                stop_below=-eps, xatol=1e-11, fatol=1e-13, maxiter=THOROUGH_MAX_ITER,
            )
            if f2 < f:
                f, x = f2, x2
    params = x_to_params(x) if x is not None else None
    return f, params


def x_to_params(x: np.ndarray) -> LiftParams:
    """Decode an optimizer vector [log c3, b, nu...] into LiftParams."""
    c3 = math.exp(x[0])
    gamma = c3 / (4.0 * float(x[1]))
    nu1 = float(x[2]) if len(x) > 2 else 0.0
    nu2 = float(x[3]) if len(x) > 3 else 0.0
    return LiftParams(c3=c3, gamma=gamma, nu1=nu1, nu2=nu2)


def params_to_x(params: LiftParams, n_extra: int) -> np.ndarray:
    x = [math.log(max(params.c3, 1e-4)), min(max(params.b, 1e-7), B_MAX)]
    if n_extra >= 1:
        x.append(params.nu1)
    if n_extra >= 2:
        x.append(params.nu2)
    return np.asarray(x)


# --------------------------------------------------------------------------
# threshold bisection
# --------------------------------------------------------------------------

def _margin_provider(kind: str, method: str):
    """Return fn(alpha, beta, warm, thorough, config=...) -> (margin, params or None)."""
    from . import thresholds_general as tg
    from . import thresholds_nonneg as tn

    if kind == "weak":
        return lambda a, b, warm, thorough, config=DEFAULT: (tg.weak_alpha_of_beta(b) - a, None)
    if kind == "weak_nonneg":
        return lambda a, b, warm, thorough, config=DEFAULT: (
            tn.weak_nonneg_alpha_of_beta(b) - a, None)
    if kind == "sectional":
        return tg.sectional_margin_direct if method == "direct" else tg.sectional_margin_lifted
    if kind == "strong":
        return tg.strong_margin_direct if method == "direct" else tg.strong_margin_lifted
    if kind == "strong_nonneg":
        return (tn.strong_nonneg_margin_direct if method == "direct"
                else tn.strong_nonneg_margin_lifted)
    raise DomainError(f"unknown kind {kind!r}")


def validate_query(alpha: float, kind: str, method: str):
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


def threshold_bisect(
    alpha: float,
    kind: str,
    method: str = "lifted",
    tol_beta: float | None = None,
    config: Config = DEFAULT,
) -> ThresholdResult:
    """Largest beta (to tol_beta) whose condition is feasible at this alpha.

    Feasibility at a probe means the kind's minimized condition margin is
    strictly below -config.feasibility_margin; the strict cut keeps boundary
    noise from being declared feasible.  config also reaches every margin
    probe (the lifted searches read their stop margin from it).
    Monotonicity of feasibility in beta
    is checked rather than assumed: after the bracket closes, the smallest
    infeasible probe is re-tested with a thorough warm-started search, and
    if it now proves feasible a NonMonotoneWarning is issued and bisection
    restarts above it.
    """
    validate_query(alpha, kind, method)
    tol_beta = config.tol_beta if tol_beta is None else tol_beta
    if tol_beta < 1e-5:
        raise DomainError("tol_beta must be >= 1e-5")
    margin_fn = partial(_margin_provider(kind, method), config=config)
    eps = config.feasibility_margin

    cap = _BETA_CAPS[kind]
    lo, hi = BETA_FLOOR, cap
    warm = None

    m_lo, p_lo = margin_fn(alpha, lo, warm, False)
    if not m_lo < -eps:
        m_lo, p_lo = margin_fn(alpha, lo, warm, True)
    if not m_lo < -eps:
        raise ThresholdRangeError(
            f"condition already infeasible at beta={lo} for alpha={alpha} "
            f"({kind}/{method}); threshold below the bisection floor"
        )
    warm = p_lo
    m_hi, p_hi = margin_fn(alpha, hi, warm, False)
    if m_hi < -eps:
        # the whole range is feasible; report the cap
        m_cap, p_cap = margin_fn(alpha, hi, warm, True)
        return ThresholdResult(alpha=alpha, beta=hi, method=method, kind=kind,
                               params_at_optimum=p_cap, condition_margin=m_cap)

    for _round in range(3):
        trace = []
        while hi - lo > tol_beta:
            mid = 0.5 * (lo + hi)
            m, p = margin_fn(alpha, mid, warm, False)
            trace.append((mid, m))
            if p is not None:
                warm = p
            if m < -eps:
                lo, m_lo, p_lo = mid, m, p
            else:
                hi = mid
        # guard against a spuriously infeasible upper end (under-minimization)
        m_re, p_re = margin_fn(alpha, hi, warm, True)
        if m_re < -eps and hi < cap - tol_beta:
            warnings.warn(
                f"feasibility at beta={hi:.6g} flipped on thorough re-probe; "
                f"restarting bisection above it",
                NonMonotoneWarning,
            )
            above = sorted(b for b, m in trace if b > hi and not m < -eps)
            lo, m_lo, p_lo = hi, m_re, p_re
            warm = p_re
            hi = above[0] if above else cap
            continue
        break

    m_fin, p_fin = margin_fn(alpha, lo, warm, True)
    if not m_fin < -eps:  # keep the certified probe if the re-solve regressed
        m_fin, p_fin = m_lo, p_lo
    return ThresholdResult(alpha=alpha, beta=lo, method=method, kind=kind,
                           params_at_optimum=p_fin, condition_margin=m_fin)
