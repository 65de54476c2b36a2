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

Every lifted set term depends on c3 only through b = c3/(4*gamma) and
mu = c3*nu2: I_set = gamma + K(b, nu1[, mu], beta)/c3.  So at fixed
q = (b, nu1[, mu]) the total is A*c3 + K/c3 + I_sph(c3, alpha) with
A = 1/(4b) - 1/2, and its minimum over c3 is a cheap scalar problem
(_c3_minimum) once K is known.  A lifted probe therefore searches over q
only, solving c3 exactly inside each evaluation (variable projection,
Golub & Pereyra, Inverse Problems 19, 2003), and reports LiftParams, the
one form of a lifted point outside the search.  The kinds give K with its
analytic gradient, so by the envelope theorem the profile's gradient is
that of the total at the optimal c3, and the search is a projected BFGS
on it (numerics.projected_bfgs).

threshold_bisect turns a feasibility condition into the threshold curve
beta(alpha).  At fixed lift parameters every lifted set term is affine in
beta, so each lifted probe's optimum certifies a whole interval of beta in
closed form.  walk steps along these certificates from the direct optimum
at small beta, one minimization per step warm-started at the previous
optimum; the lifted search walks up to the cap and a cold lifted margin
walks up to its beta.  The direct and weak margins are increasing in beta,
so their threshold is one bracketed root solve on beta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT, Config
from .errors import (ConstraintViolatedError, DomainError, L1LabError, NonConvergentError,
                     NoSignChangeError)
from .numerics import Bracket, find_root, projected_bfgs

METHODS = ("direct", "lifted")

BETA_FLOOR = 1e-4

B_MIN = 1e-7
B_MAX = 0.4999995
# the box over (c3, b, nu1, nu2) that every reported lifted point lies in,
# warm starts are clipped to (LiftParams.clipped) and the parity audit samples
SEARCH_BOX = ((1e-4, 400.0), (B_MIN, B_MAX), (0.0, 14.0), (0.0, 400.0))
(C3_MIN, C3_MAX), _, _, (_, NU2_MAX) = SEARCH_BOX
# the box over q = [b, nu1, mu] of a probe's search (mu = c3*nu2 <= C3_MAX*NU2_MAX);
# a kind with one multiplier uses q[:2]
_Q_BOX = (SEARCH_BOX[1], SEARCH_BOX[2], (0.0, C3_MAX * NU2_MAX))
# every projected BFGS run of a lifted probe stops once its predicted
# decrease is below _FATOL (the totals are O(1), so that is their
# rounding) or after _MAX_ITER iterations
_FATOL = 1e-14
_MAX_ITER = 200
# Newton steps of one inner c3 solve, and its relative step at convergence
_C3_STEPS = 100
_C3_RTOL = 1e-10


class ThresholdRangeError(L1LabError):
    """The threshold lies outside the search range [BETA_FLOOR, cap]."""


@dataclass(frozen=True)
class LiftParams:
    """Free variables of a lifted bound at one parameter point.

    nu2 is unused (zero) for the sectional kind, where only one multiplier
    appears.  The exponential moments converge iff b = c3/(4*gamma) < 1/2,
    equivalently gamma > c3/2.  The family needs 0 < c3 < inf: its c3 -> 0
    limit is the direct bound, whose reported parameters carry c3 = 0.
    """

    c3: float
    gamma: float
    nu1: float = 0.0
    nu2: float = 0.0

    @property
    def b(self) -> float:
        return self.c3 / (4.0 * self.gamma)

    def require_convergent(self):
        if not (0.0 < self.c3 < math.inf and self.gamma > 0 and self.b < 0.5):
            raise ConstraintViolatedError(f"need 0 < c3 < inf, gamma > 0 and c3/(4*gamma) < 1/2, "
                                          f"got c3={self.c3!r}, gamma={self.gamma!r}")

    def clipped(self) -> LiftParams:
        """c3, b, nu1 and nu2 clipped into SEARCH_BOX, as Python floats."""
        c3, b, nu1, nu2 = (min(max(float(v), lo), hi) for v, (lo, hi) in
                           zip((self.c3, self.b, self.nu1, self.nu2), SEARCH_BOX))
        return LiftParams(c3=c3, gamma=c3 / (4.0 * b), nu1=nu1, nu2=nu2)


@dataclass(frozen=True)
class ThresholdResult:
    alpha: float
    beta: float
    method: str
    kind: str
    params_at_optimum: LiftParams | None
    condition_margin: float


def sphere_gamma_hat(c3: float, alpha: float) -> float:
    """Optimal (negative) sphere scale: (2*c3 - sqrt(4*c3**2 + 16*alpha)) / 8.

    Evaluated in the cancellation-free form -2*alpha / (2*c3 + sqrt(...)),
    exact for c3 = 0 as well (limit -sqrt(alpha)/2).  NaN and infinite
    arguments are refused, so every sphere function refuses them too.
    """
    if not (0.0 <= c3 < math.inf and 0.0 < alpha < math.inf):
        raise DomainError(f"need 0 <= c3 < inf and 0 < alpha < inf, got c3={c3}, alpha={alpha}")
    root = math.sqrt(4.0 * c3 * c3 + 16.0 * alpha)
    return -2.0 * alpha / (2.0 * c3 + root)


def i_sph(c3: float, alpha: float) -> float:
    """Sphere term gamma_hat - alpha/(2*c3) * log(1 - c3/(2*gamma_hat)).

    Requires c3 > 0; its c3 -> 0 limit is -sqrt(alpha), the sphere term of
    the direct bounds.  The log argument exceeds 1 because gamma_hat < 0, so
    the expression is total on the stated domain.
    """
    if c3 <= 0:
        raise DomainError("i_sph requires c3 > 0; its c3 -> 0 limit is -sqrt(alpha)")
    g = sphere_gamma_hat(c3, alpha)
    return g - alpha / (2.0 * c3) * math.log1p(-c3 / (2.0 * g))


# --------------------------------------------------------------------------
# quadrature oracle for exponential set terms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpPiece:
    """One weighted log-expectation (weight/c3) * log E exp(c3 * t(h)).

    t must be vectorized; breakpoints list the kinks of t so quadrature
    panels can be aligned to them.
    """

    weight: float
    t: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...]


def window_half_width(params: LiftParams) -> float:
    """The oracle's window in h for any lifted exponent, which grows as
    (|h| + nu1)^2/(4*gamma) beyond a plateau reaching |h| = nu1 +
    sqrt(8*gamma*nu2) (nu1 for the sectional kind): exp(c3*t(h)) tilts the
    Gaussian to scale sigma = 1/sqrt(1 - 2b) and drifts it by
    2*b*nu1/(1 - 2b), and the window reaches 13 sigma past both."""
    if params.nu1 < 0 or params.nu2 < 0:
        raise DomainError("need nu1, nu2 >= 0")
    b = params.b
    sig = 1.0 / math.sqrt(1.0 - 2.0 * b)
    drift = 2.0 * b * params.nu1 / (1.0 - 2.0 * b)
    reach = params.nu1 + math.sqrt(8.0 * params.gamma * params.nu2)
    return reach + drift + 13.0 * sig + 2.0


def exp_set_term_oracle(integrand_spec, params: LiftParams, beta: float) -> float:
    """Set term evaluated by quadrature straight from the exponent definition.

    integrand_spec(params, beta) must return (linear, pieces) where linear
    collects the terms outside the expectations (gamma, multiples of nu) and
    pieces is a sequence of ExpPiece, all integrated over one window
    window_half_width(params): the authoritative evaluation of the set term.
    """
    from .numerics import QuadratureSpec, gauss_expectation

    params.require_convergent()
    spec = QuadratureSpec(half_width=max(window_half_width(params), 6.0))
    linear, pieces = integrand_spec(params, beta)
    total = float(linear)
    c3 = params.c3
    for piece in pieces:
        ev = gauss_expectation(
            lambda h: c3 * piece.t(h), spec, breakpoints=piece.breakpoints,
            g_is_log=True,
        )
        total += piece.weight / c3 * math.log(ev)
    return total


@dataclass(frozen=True)
class LiftedKind:
    """What one lifted bound adds to the shared master condition.

    k_term(b, extras, beta) -> (K, grad) is the c3-free part K of the
    closed-form set term I_set = gamma + K/c3 on Python floats, with
    b = c3/(4*gamma) and extras = (nu1,) or (nu1, mu), mu = c3*nu2, and its
    analytic gradient in (b, *extras); K is inf (grad None) outside its
    domain (a negative multiplier, an overflowing moment).  K is computed
    directly: recovering it from a set term at c3 = 1 as I_set - 1/(4b)
    would cancel about 6 digits at b = 1e-6, which the division by c3 then
    magnifies.  integrand(params, beta) is its description for
    exp_set_term_oracle;
    direct(beta) -> (root, nu1) is the direct (c3 -> 0) optimum, root being
    the value compared with sqrt(alpha); nu2(beta, nu1, gamma) is the second
    multiplier the direct optimum implies, None for a kind with one.

    No field may hold a function that tracers or tests rebind on its module
    (the direct minima, the moments): a reference taken here would bypass
    the rebinding, so each such call goes through a small module function.
    """

    k_term: Callable[[float, Sequence[float], float], tuple[float, Sequence[float] | None]]
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
        extras = (params.nu1, params.c3 * params.nu2)[:self.n_extra]
        return params.gamma + self.k_term(params.b, extras, beta)[0] / params.c3


# --------------------------------------------------------------------------
# inner minimization of the lifted total
# --------------------------------------------------------------------------

def lifted_total(kind: LiftedKind, params: LiftParams, alpha: float, beta: float) -> float:
    """The closed-form master-condition total at explicit lift parameters:
    -c3/2 + I_set + I_sph, the value every lifted probe reports."""
    return -0.5 * params.c3 + kind.set_term_at(beta, params) + i_sph(params.c3, alpha)


def _c3_minimum(a: float, k: float, alpha: float, c3: float, lo: float,
                hi: float) -> tuple[float, float, float]:
    """(min, argmin, c3**2 * phi'(argmin)) over c3 in [lo, hi] (0 < lo <= hi) of

        phi(c3) = a*c3 + k/c3 + i_sph(c3, alpha),   a > 0,

    by safeguarded Newton on c3**2 * phi'(c3), starting at c3.

    With g the optimal sphere scale at c3 (so c3 = 2g - alpha/(2g)), the
    envelope theorem gives

        c3**2 * phi'(c3) = a*c3**2 + g*c3 + (alpha/2)*log1p(-c3/(2g)) - k,

    which is strictly increasing in c3 (its derivative is
    c3*(2a + 4g**2/(4g**2 + alpha)) > 0, as c3*i_sph is convex), so phi has
    one minimum on [lo, hi].  The iterate is c3 rather than g, because
    c3 = 2g - alpha/(2g) cancels at small c3; g comes from the
    cancellation-free form of sphere_gamma_hat, and log1p keeps the digits
    of the log there.  Each step narrows a bracket by the sign of the
    slope; a Newton step leaving it goes to an end whose sign is still
    unknown, or else to the geometric midpoint.  The value returned is phi
    at the last point the slope was evaluated at, with i_sph in closed form
    from the same g.
    """
    c = min(max(c3, lo), hi)
    lo_known = hi_known = False  # slope < 0 at lo / > 0 at hi seen
    for _ in range(_C3_STEPS):
        at = c
        g = -2.0 * alpha / (2.0 * c + math.sqrt(4.0 * c * c + 16.0 * alpha))
        log_term = math.log1p(-c / (2.0 * g))
        slope = (a * c + g) * c + 0.5 * alpha * log_term - k
        if slope > 0.0:
            if c == lo:
                break
            hi, hi_known = c, True
        elif slope < 0.0:
            if c == hi:
                break
            lo, lo_known = c, True
        else:
            break
        g2 = 4.0 * g * g
        step = slope / (c * (2.0 * a + g2 / (g2 + alpha)))
        if abs(step) <= _C3_RTOL * c:
            break
        new = c - step
        if not lo < new < hi:
            if new <= lo and not lo_known:
                new = lo
            elif new >= hi and not hi_known:
                new = hi
            else:
                new = math.sqrt(lo * hi)
        c = new
    return a * at + k / at + (g - alpha / (2.0 * at) * log_term), at, slope


def _profile_objective(kind: LiftedKind, alpha: float, beta: float, c3_start: float):
    """profile(q) -> (total, grad, c3): the lifted total minimized over c3
    at q = [b, nu1[, mu]] (a list of floats), its gradient in q and the
    minimizing c3.

    K(q) and its gradient are computed once, then c3 is solved by
    _c3_minimum over [max(C3_MIN, mu/NU2_MAX), C3_MAX], so that
    nu2 = mu/c3 stays in SEARCH_BOX.  The first solve starts at c3_start
    and each later one at the c3 of the last finite total: the search moves
    q little between evaluations, so the inner solve usually takes two or
    three steps.  By the envelope theorem the gradient is that of
    A*c3 + K/c3 at the optimal c3, A = 1/(4b) - 1/2, plus, when c3 sits on
    the edge mu/NU2_MAX, the total's c3-slope times that edge's mu-slope.
    The total is inf (grad None) outside the convergent domain and wherever
    K, its gradient or the total is not finite."""
    k_term = kind.k_term
    last = [c3_start]

    def profile(q):
        b = q[0]
        if not 0.0 < b < 0.5:
            return math.inf, None, last[0]
        k, dk = k_term(b, q[1:], beta)
        if not math.isfinite(k):
            return math.inf, None, last[0]
        lo = max(C3_MIN, q[2] / NU2_MAX) if len(q) > 2 else C3_MIN
        val, c3, slope = _c3_minimum(0.25 / b - 0.5, k, alpha, last[0], lo, C3_MAX)
        grad = [dk[0] / c3 - c3 / (4.0 * b * b)] + [d / c3 for d in dk[1:]]
        if c3 == lo > C3_MIN and slope > 0.0:
            grad[2] += slope / (c3 * c3 * NU2_MAX)
        if not (math.isfinite(val) and all(map(math.isfinite, grad))):
            return math.inf, None, c3
        last[0] = c3
        return val, grad, c3

    return profile


def minimize_lifted_total(
    kind: LiftedKind,
    alpha: float,
    beta: float,
    start: LiftParams,
) -> tuple[float, LiftParams]:
    """One numerics.projected_bfgs run over q = [b, nu1[, mu]] (mu = c3*nu2)
    from start clipped into SEARCH_BOX, with c3 solved exactly at every q
    and the profile's analytic gradient (_profile_objective); returns
    (total, params) at its end.

    The run stops on _FATOL and _MAX_ITER.  A start whose total is not
    finite (K overflows at b near 1/2 and a large nu1) has its b halved
    until it is.  The end point is reported as LiftParams in SEARCH_BOX
    with the closed-form lifted_total there, so the margin is exactly what
    the reported parameters certify.  If that total is above (or not below)
    the total at the clipped start, the start and its total are returned
    instead: a probe never ends above its start, so a start that certifies
    beta yields a certificate.
    """
    start = start.clipped()
    q = [start.b, start.nu1, start.c3 * start.nu2][:1 + kind.n_extra]
    profile = _profile_objective(kind, alpha, beta, start.c3)
    while True:
        q, (f, _, c3) = projected_bfgs(profile, q, _Q_BOX[:len(q)],
                                       fatol=_FATOL, max_iter=_MAX_ITER)
        if f < math.inf or q[0] <= B_MIN:
            break
        q[0] = max(0.5 * q[0], B_MIN)
    nu2 = min(q[2] / c3, NU2_MAX) if len(q) > 2 else 0.0
    end = LiftParams(c3=c3, gamma=c3 / (4.0 * q[0]), nu1=q[1], nu2=nu2)
    total = lifted_total(kind, end, alpha, beta) if f < math.inf else math.inf
    start_total = lifted_total(kind, start, alpha, beta)
    if not total <= start_total:
        return start_total, start
    return total, end


def _direct_point(kind: LiftedKind, beta: float) -> tuple[float, LiftParams]:
    """(root, params): the direct (c3 -> 0) optimum at beta, root being
    compared with sqrt(alpha), as c3 = 0 lift parameters (gamma = root/2)."""
    root, nu1 = kind.direct(beta)
    gamma = max(root, 1e-12) / 2.0
    nu2 = 0.0 if kind.nu2 is None else kind.nu2(beta, nu1, gamma)
    return root, LiftParams(c3=0.0, gamma=gamma, nu1=nu1, nu2=nu2)


def direct_margin(kind: LiftedKind, alpha: float, beta: float) -> tuple[float, LiftParams]:
    """The direct condition margin root - sqrt(alpha), with _direct_point's params."""
    root, params = _direct_point(kind, beta)
    return root - math.sqrt(alpha), params


def floor_start(kind: LiftedKind, beta: float) -> LiftParams:
    """Where a lifted walk starts: the direct optimum at beta, which the
    lifted family contains as its c3 -> 0 member, lifted to c3 = 1e-3 with
    b = c3/(4*gamma) in [1e-6, 0.49]."""
    params = _direct_point(kind, beta)[1]
    b = min(max(1e-3 / (4.0 * params.gamma), 1e-6), 0.49)
    return replace(params, c3=1e-3, gamma=1e-3 / (4.0 * b))


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

    With a warm start this is one minimize_lifted_total run from it: a
    projected BFGS search over (b, nu1[, mu]) on analytic gradients, with c3
    solved exactly at each point, which never ends above the total at the
    start; threshold_bisect warm-starts each probe at the previous optimum.
    Without one it walks the threshold search's certificate steps up to
    beta (default eps and tol_beta), since a single cold start can stall at
    small c3, and, if the walk stops short of beta, makes one warm run at
    beta from the last feasible point.  Such a margin
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
    return minimize_lifted_total(kind, alpha, beta, warm)


# --------------------------------------------------------------------------
# threshold search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """One row of the kind table: what threshold_bisect needs of a kind.

    cap is the largest beta searched.  lifted is the kind's LiftedKind, or
    None for a weak kind, whose one route is its exact weak boundary,
    reported as method "direct".  margins maps each method the kind has to
    fn(alpha, beta, warm=None) -> (margin, params or None).
    characterization(alpha, beta) is a weak kind's weak characterization.
    """

    cap: float
    lifted: LiftedKind | None
    margins: dict[str, Callable]
    characterization: Callable[[float, float], float] | None = None

    def residual(self, alpha: float, eps: float) -> tuple[Callable[[float], float], float]:
        """(F, hi): an F(beta) increasing through 0 where the direct or weak
        margin crosses -2*eps, and the upper end of the beta range to search.

        A direct F is the margin plus 2*eps.  A weak F is the weak
        characterization at alpha - 2*eps, negated: its root is the beta
        whose weak boundary alpha_w(beta) is alpha - 2*eps, so no alpha_w is
        solved per probe, and the range stops at alpha - 2*eps, where
        alpha_w >= beta makes the characterization -inf.
        """
        if self.characterization is None:
            margin = self.margins["direct"]
            return (lambda beta: margin(alpha, beta)[0] + 2.0 * eps), self.cap
        a = alpha - 2.0 * eps
        return (lambda beta: -self.characterization(a, beta)), min(self.cap, a)

    def method_for(self, method: str) -> str:
        """The method a search of this kind runs when asked for `method`."""
        return "direct" if self.lifted is None else method


def _late(module, name: str) -> Callable:
    """fn(*args) calling module.<name> as bound at call time, so that a
    tracer's or a test's rebinding of the attribute is seen."""
    return lambda *args: getattr(module, name)(*args)


@functools.cache
def kind_table() -> dict[str, Kind]:
    """name -> Kind of every threshold kind, built on first use because the
    kind modules import this one.

    A weak kind <name> is searched through <name>_alpha_of_beta and
    <name>_characterization of its module; a lifted kind <name> through the
    module's LiftedKind <NAME> and its margins <name>_margin_direct and
    <name>_margin_lifted.
    """
    from . import thresholds_general as tg
    from . import thresholds_nonneg as tn

    def weak(module, name):
        alpha_w = _late(module, f"{name}_alpha_of_beta")
        return Kind(cap=1.0 - 1e-6, lifted=None,
                    margins={"direct": lambda a, b, warm=None: (alpha_w(b) - a, None)},
                    characterization=getattr(module, f"{name}_characterization"))

    def lifted(module, name, cap):
        return Kind(cap=cap, lifted=getattr(module, name.upper()),
                    margins={m: _late(module, f"{name}_margin_{m}") for m in METHODS})

    # strong set definitions need k <= n/2
    return {"weak": weak(tg, "weak"),
            "sectional": lifted(tg, "sectional", 0.9999),
            "strong": lifted(tg, "strong", 0.5 - 1e-9),
            "weak_nonneg": weak(tn, "weak_nonneg"),
            "strong_nonneg": lifted(tn, "strong_nonneg", 0.5 - 1e-9)}


def threshold_bisect(
    alpha: float,
    kind: str,
    method: str = "lifted",
    config: Config = DEFAULT,
) -> ThresholdResult:
    """Largest beta (to config.tol_beta) whose condition is feasible at alpha.

    Feasibility at a probe means the kind's minimized condition margin is
    strictly below -config.feasibility_margin (eps); the strict cut keeps
    boundary noise from being declared feasible.  The search starts from a
    feasible probe at BETA_FLOOR (ThresholdRangeError otherwise) and
    reports the cap when the whole range is feasible.  A weak kind has one
    route, its weak boundary, and reports it as "direct" whatever method
    is asked for.

    A lifted kind is searched by walk up to the cap: certificate steps on
    beta, each re-minimized with one minimize_lifted_total run
    warm-started at the previous optimum, until the first infeasible probe
    (necessarily one tol_beta above the last feasible one).  The direct and weak margins are
    increasing in beta, so their threshold is one bracketed root solve
    (xtol tol_beta/4) of the kind's residual, which crosses 0 where the
    margin is -2*eps.  The margin is then evaluated at the root r; if it is
    not below -eps, r - tol_beta/2 is reported instead, which lies below
    the exact crossing and is checked to be feasible.
    """
    table = kind_table()
    if kind not in table:
        raise DomainError(f"kind must be one of {tuple(table)}, got {kind!r}")
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    row = table[kind]
    method = row.method_for(method)
    margin_fn = row.margins[method]
    eps, tol_beta = config.feasibility_margin, config.tol_beta
    if method == "lifted":
        lo, m_lo, p_lo = walk(margin_fn, row.lifted, alpha, row.cap, eps, tol_beta)
    else:
        lo = BETA_FLOOR
        m_lo, p_lo = margin_fn(alpha, lo)
    if not m_lo < -eps:
        raise ThresholdRangeError(
            f"condition already infeasible at beta={lo} for alpha={alpha} "
            f"({kind}/{method}); threshold below the bisection floor"
        )

    if method == "direct":
        m_hi, p_hi = margin_fn(alpha, row.cap)
        if m_hi < -eps:
            lo, m_lo, p_lo = row.cap, m_hi, p_hi
        else:
            residual, hi = row.residual(alpha, eps)
            try:
                root = find_root(residual, Bracket(lo, hi), tol=tol_beta / 4.0)
            except NoSignChangeError:  # the floor margin lies in [-2 eps, -eps)
                root = lo
            for beta in (root, max(root - tol_beta / 2.0, lo)):
                m, p = margin_fn(alpha, beta)
                if m < -eps:
                    break
            else:
                raise NonConvergentError(
                    f"no feasible beta at the root {root!r} of the {kind}/{method} "
                    f"margin or tol_beta/2 below it (margin {m:.3e}) for alpha={alpha}"
                )
            lo, m_lo, p_lo = beta, m, p
    return ThresholdResult(alpha=alpha, beta=lo, method=method, kind=kind,
                           params_at_optimum=p_lo, condition_margin=m_lo)
