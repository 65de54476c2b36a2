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
lifted threshold can never fall below the direct one beyond search noise.

threshold_bisect turns a feasibility condition into the threshold curve
beta(alpha).  At fixed lift parameters every lifted set term is affine in
beta, so each lifted probe's optimum certifies a whole interval of beta in
closed form.  walk steps along these certificates from the direct optimum
at small beta, one Nelder-Mead run per step warm-started at the previous
optimum; the lifted search walks up to the cap and a cold lifted margin
walks up to its beta.  The direct and weak kinds are bisected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT, Config
from .errors import ConstraintViolatedError, DomainError, L1LabError
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
# every Nelder-Mead run of a lifted margin: tolerances and evaluation budget
_NM_OPTS = {"xatol": 1e-11, "fatol": 1e-13, "maxiter": 5000, "maxfev": 5000}


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
    start: Sequence[float],
    extra_bounds: Sequence[tuple],
) -> tuple[float, list[float]]:
    """One bounded Nelder-Mead run over x = [log c3, b, extras] from start;
    returns (total, x) at its end.

    set_term(c3, gamma, extras, beta) evaluates the kind's set term at fixed
    parameters on Python floats.  The run has the tolerances and budget of
    _NM_OPTS and never ends above its (clipped) start, so a start that
    certifies beta yields a certificate.

    The simplex is numerics.nelder_mead, which takes the same steps as
    scipy's bounded Nelder-Mead (ties in vertex order broken by np.argsort,
    as scipy does) while keeping every iterate a list of floats, so the
    solve returns the same bits at a fraction of the per-evaluation cost.
    """
    objective = _total_objective(set_term, alpha, beta)
    bounds = [(LOG_C3_MIN, LOG_C3_MAX), (1e-7, B_MAX), *extra_bounds]
    res = nelder_mead(objective, start, bounds, **_NM_OPTS)
    return res.fun, res.x


def direct_margin(kind: LiftedKind, alpha: float, beta: float) -> tuple[float, LiftParams]:
    """The direct (c3 -> 0) condition margin root - sqrt(alpha), with the
    direct optimum as c3 = 0 lift parameters (gamma = root/2)."""
    root, nu1 = kind.direct(beta)
    gamma = max(root, 1e-12) / 2.0
    nu2 = 0.0 if kind.nu2 is None else kind.nu2(beta, nu1, gamma)
    return root - math.sqrt(alpha), LiftParams(c3=0.0, gamma=gamma, nu1=nu1, nu2=nu2)


def floor_start(kind: LiftedKind, beta: float) -> LiftParams:
    """Where a lifted walk starts: the direct optimum at beta, which the
    lifted family contains as its c3 -> 0 member, lifted to c3 = 1e-3."""
    root, nu1 = kind.direct(beta)
    g0 = max(root, 1e-6) / 2.0
    extras = [nu1] if kind.nu2 is None else [nu1, min(kind.nu2(beta, nu1, g0), 400.0)]
    b = min(max(1e-3 / (4.0 * g0), 1e-6), 0.49)
    return x_to_params([math.log(1e-3), b, *extras])


def walk(margin_fn: Callable, kind: LiftedKind, alpha: float, stop: float,
         eps: float, tol_beta: float) -> tuple[float, float, LiftParams]:
    """Certificate steps on beta from min(BETA_FLOOR, stop) towards stop.

    margin_fn(alpha, beta, warm) is the kind's lifted margin.  The first
    probe starts at floor_start; each later one is warm-started at the
    previous optimum p.  The total is affine in beta at fixed p, so p
    certifies every beta up to where its total reaches -2*eps; the walk
    steps there, or tol_beta further if that is further, never past stop.
    It ends at the first probe whose margin is not below -eps or on
    reaching stop, and returns (beta, margin, params) of the last feasible
    probe, or of the first probe when even that one is infeasible.
    """
    lo = min(BETA_FLOOR, stop)
    m_lo, p_lo = margin_fn(alpha, lo, floor_start(kind, lo))
    if not m_lo < -eps:
        return lo, m_lo, p_lo
    while lo < stop:
        slope = kind.set_term_at(1.0, p_lo) - kind.set_term_at(0.0, p_lo)
        step = (-2.0 * eps - m_lo) / slope if slope > 0 else math.inf
        beta = min(lo + max(step, tol_beta), stop)
        # p_lo's total at beta is below -eps (up to rounding) unless the
        # step was raised to tol_beta, so only such a probe can fail
        m, p = margin_fn(alpha, beta, p_lo)
        if not m < -eps:
            break
        lo, m_lo, p_lo = beta, m, p
    return lo, m_lo, p_lo


def lifted_margin(
    kind: LiftedKind,
    alpha: float,
    beta: float,
    warm: LiftParams | None = None,
) -> tuple[float, LiftParams]:
    """Minimized lifted total at (alpha, beta): the kind's condition margin.

    With a warm start this is one Nelder-Mead run from it, which never ends
    above the total at the start; threshold_bisect warm-starts each probe at
    the previous optimum.  Without one it walks the threshold search's
    certificate steps up to beta (default eps and tol_beta), since a single
    cold start can stall at small c3, and, if the walk stops short of beta,
    makes one warm run at beta from the last feasible point.  Such a margin
    (beta past the threshold) is the minimum of the basin the walk ended
    in, so only its sign is meaningful.
    """
    if warm is None:
        kind.direct(beta)  # DomainError outside the kind's beta range
        lo, m, p = walk(functools.partial(lifted_margin, kind), kind, alpha, beta,
                        DEFAULT.feasibility_margin, DEFAULT.tol_beta)
        if lo == beta:
            return m, p
        warm = p
    f, x = minimize_lifted_total(kind.set_term, alpha, beta,
                                 params_to_x(warm, kind.n_extra),
                                 _NU_BOUNDS[:kind.n_extra])
    return f, x_to_params(x)


def x_to_params(x: Sequence[float]) -> LiftParams:
    """Decode an optimizer vector [log c3, b, nu...] into LiftParams."""
    c3 = math.exp(x[0])
    gamma = c3 / (4.0 * float(x[1]))
    nu1 = float(x[2]) if len(x) > 2 else 0.0
    nu2 = float(x[3]) if len(x) > 3 else 0.0
    return LiftParams(c3=c3, gamma=gamma, nu1=nu1, nu2=nu2)


def params_to_x(params: LiftParams, n_extra: int) -> list[float]:
    return [math.log(max(params.c3, 1e-4)), min(max(params.b, 1e-7), B_MAX),
            *(params.nu1, params.nu2)[:n_extra]]


# --------------------------------------------------------------------------
# threshold search
# --------------------------------------------------------------------------

def lifted_kinds() -> dict[str, LiftedKind]:
    """name -> LiftedKind of the three lifted kinds, looked up on each call
    because the kind modules import this one."""
    from .thresholds_general import SECTIONAL, STRONG
    from .thresholds_nonneg import STRONG_NONNEG

    return {"sectional": SECTIONAL, "strong": STRONG, "strong_nonneg": STRONG_NONNEG}


def _margin_provider(kind: str, method: str):
    """Return fn(alpha, beta, warm=None) -> (margin, params or None)."""
    from . import thresholds_general as tg
    from . import thresholds_nonneg as tn

    if kind == "weak":
        return lambda a, b, warm=None: (tg.weak_alpha_of_beta(b) - a, None)
    if kind == "weak_nonneg":
        return lambda a, b, warm=None: (tn.weak_nonneg_alpha_of_beta(b) - a, None)
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
    strictly below -config.feasibility_margin (eps); the strict cut keeps
    boundary noise from being declared feasible.  The search starts from a
    feasible probe at BETA_FLOOR (ThresholdRangeError otherwise) and
    reports the cap when the whole range is feasible.

    A lifted kind is searched by walk up to the cap: certificate steps on
    beta, each re-minimized with one Nelder-Mead run warm-started at the
    previous optimum, until the first infeasible probe (necessarily one
    tol_beta above the last feasible one).  The direct and weak margins have
    no such certificate and are bisected.
    """
    validate_query(alpha, kind, method)
    tol_beta = config.tol_beta if tol_beta is None else tol_beta
    if not (math.isfinite(tol_beta) and tol_beta >= 1e-5):
        raise DomainError(f"tol_beta must be finite and >= 1e-5, got {tol_beta}")
    margin_fn = _margin_provider(kind, method)
    eps = config.feasibility_margin
    spec = lifted_kinds().get(kind) if method == "lifted" else None
    cap = _BETA_CAPS[kind]
    if spec is not None:
        lo, m_lo, p_lo = walk(margin_fn, spec, alpha, cap, eps, tol_beta)
    else:
        lo = BETA_FLOOR
        m_lo, p_lo = margin_fn(alpha, lo, None)
    if not m_lo < -eps:
        raise ThresholdRangeError(
            f"condition already infeasible at beta={lo} for alpha={alpha} "
            f"({kind}/{method}); threshold below the bisection floor"
        )

    if spec is None:
        hi = cap
        m_hi, p_hi = margin_fn(alpha, hi, p_lo)
        if m_hi < -eps:
            lo, m_lo, p_lo = hi, m_hi, p_hi
        while hi - lo > tol_beta:
            mid = 0.5 * (lo + hi)
            m, p = margin_fn(alpha, mid, p_lo)
            if m < -eps:
                lo, m_lo, p_lo = mid, m, p
            else:
                hi = mid
    return ThresholdResult(alpha=alpha, beta=lo, method=method, kind=kind,
                           params_at_optimum=p_lo, condition_margin=m_lo)
