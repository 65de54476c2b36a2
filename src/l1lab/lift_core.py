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
mu = c3*nu2, and is affine in beta: I_set = gamma + (K0 + beta*D)/c3 with
K0 and D functions of q = (b, nu1[, mu]).  So at fixed q the total is
A*c3 + (K0 + beta*D)/c3 + I_sph(c3, alpha), A = 1/(4b) - 1/2, and the
largest beta it certifies, where it reaches -2*eps, is a ratio whose best
c3 is the root of a quadratic (_ratio_profile).  The lifted threshold is
the maximum of that ratio over q: one projected BFGS run on its analytic
gradient (numerics.projected_bfgs, lifted_threshold), which reports
LiftParams, the one form of a lifted point outside the search.

threshold_bisect turns a feasibility condition into the threshold curve
beta(alpha).  A lifted kind reports lifted_threshold's beta, up to the cap,
with the closed-form total there as its margin.  A direct or weak residual
is a minimum over a multiplier of functions affine or concave in beta, so
it is concave and increasing in beta, with its slope at the optimal
multiplier (the envelope theorem): one Newton solve on it from BETA_FLOOR,
whose iterates stay feasible, decides the direct and weak thresholds and
where the lifted search starts.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT, Config
from .errors import ConstraintViolatedError, DomainError, L1LabError
from .numerics import newton_root, projected_bfgs

METHODS = ("direct", "lifted")

BETA_FLOOR = 1e-4

B_MIN = 1e-7
B_MAX = 0.4999995
# the box over (c3, b, nu1, nu2) that every reported lifted point lies in
# and the parity audit samples
SEARCH_BOX = ((1e-4, 400.0), (B_MIN, B_MAX), (0.0, 14.0), (0.0, 400.0))
(C3_MIN, C3_MAX), _, _, (_, NU2_MAX) = SEARCH_BOX
# the box over q = [b, nu1, mu] of a lifted search (mu = c3*nu2 <= C3_MAX*NU2_MAX);
# a kind with one multiplier uses q[:2]
_Q_BOX = (SEARCH_BOX[1], SEARCH_BOX[2], (0.0, C3_MAX * NU2_MAX))
# the projected BFGS run of a lifted search stops once its predicted
# decrease is below _FATOL (the ratios are O(1), so that is their
# rounding) or after _MAX_ITER iterations
_FATOL = 1e-14
_MAX_ITER = 200


class ThresholdRangeError(L1LabError):
    """The threshold lies outside the search range [BETA_FLOOR, cap]."""


@dataclass(frozen=True, slots=True)
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

@dataclass(frozen=True, slots=True)
class ExpPiece:
    """One weighted log-expectation (weight/c3) * log E exp(c3 * t(h, params)).

    t is a module-level function of the nodes h and the lift parameters,
    vectorized in h, whose params are either LiftParams of floats or, in a
    batched oracle call, LiftParams of columns gathered once per panel row
    of 16 nodes, which broadcast against h; breakpoints list the kinks of t
    at the tuple's parameters, so quadrature panels can be aligned to them.
    Every tuple of a kind names the same t for a piece, which is what lets
    one quadrature call integrate that piece for a whole batch.
    """

    weight: float
    t: Callable[[np.ndarray, LiftParams], np.ndarray]
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


def exp_set_term_oracle(integrand_spec, params, beta):
    """Set term evaluated by quadrature straight from the exponent definition,
    as a float at one LiftParams and beta, or as a list at a sequence of
    LiftParams of one kind and the sequence of their betas.

    integrand_spec(params, beta) must return (linear, pieces) where linear
    collects the terms outside the expectations (gamma, multiples of nu) and
    pieces is a sequence of ExpPiece, all integrated over one window
    window_half_width(params): the authoritative evaluation of the set term.
    A batch makes one numerics.gauss_expectation call per piece for all its
    tuples, each keeping its own window, breakpoints and convergence test,
    so a tuple's value in a batch is its value alone up to the order of
    the quadrature sums (1e-14 relative).  What the batch
    keeps per tuple is a few floats and each piece's breakpoints; the
    quadrature specs are made one at a time as each call reads them.
    """
    from .numerics import QuadratureSpec, gauss_expectation

    one = isinstance(params, LiftParams)
    params, beta = ([params], [beta]) if one else (params, beta)
    cols = np.empty((5, len(params)))
    totals, ts = [], None
    for i, (p, b) in enumerate(zip(params, beta, strict=True)):
        p.require_convergent()
        cols[:, i] = p.c3, p.gamma, p.nu1, p.nu2, max(window_half_width(p), 6.0)
        linear, pieces = integrand_spec(p, b)
        if ts is None:
            ts, weights = [pc.t for pc in pieces], np.empty((len(pieces), len(params)))
            breaks = [[] for _ in pieces]
        elif [pc.t for pc in pieces] != ts:
            raise DomainError("a batch of oracle tuples must share each piece's exponent t")
        totals.append(float(linear))
        weights[:, i] = [pc.weight / p.c3 for pc in pieces]
        for bps, pc in zip(breaks, pieces):
            bps.append(pc.breakpoints)
    c3, gamma, nu1, nu2, windows = cols
    for j, t in enumerate(ts or ()):
        def g(h, item, t=t):
            if item[0, 0] == item[-1, 0]:  # one tuple: its scalars broadcast fastest
                item = item[0, 0]
            at = LiftParams(c3[item], gamma[item], nu1[item], nu2[item])
            return at.c3 * t(h, at)

        evs = gauss_expectation(g, (QuadratureSpec(half_width=float(w)) for w in windows),
                                breaks[j], g_is_log=True)
        for i, (w, ev) in enumerate(zip(weights[j].tolist(), evs)):
            totals[i] += w * math.log(ev)
    return totals[0] if one else totals


@dataclass(frozen=True)
class LiftedKind:
    """What one lifted bound adds to the shared master condition.

    k_term(b, extras) -> ((K0, D), (grad K0, grad D)) gives, from one
    moment evaluation, the c3-free part K = K0 + beta*D of the closed-form
    set term I_set = gamma + K/c3 on Python floats, with b = c3/(4*gamma)
    and extras = (nu1,) or (nu1, mu), mu = c3*nu2, and the analytic
    gradients of K0 and D in (b, *extras); K0 is inf (gradients None)
    outside the domain (a negative multiplier, an overflowing moment).  K
    is computed directly: recovering it from a set term at c3 = 1 as
    I_set - 1/(4b) would cancel about 6 digits at b = 1e-6, which the
    division by c3 then magnifies.  integrand(params, beta) is its
    description for exp_set_term_oracle;
    direct(beta) -> (root, nu1, slope) is the direct (c3 -> 0) optimum,
    root being the value compared with sqrt(alpha) and slope its
    beta-derivative at the optimal nu1; cap is the largest beta searched;
    nu2(beta, nu1, gamma) is the second multiplier the direct optimum
    implies, None for a kind with one.

    No field may hold a function that tracers or tests rebind on its module
    (the direct minima, the moments): a reference taken here would bypass
    the rebinding, so each such call goes through a small module function.
    """

    k_term: Callable[[float, Sequence[float]], tuple[tuple[float, float], tuple | None]]
    integrand: Callable
    direct: Callable[[float], tuple[float, float, float]]
    cap: float
    nu2: Callable[[float, float, float], float] | None = None

    @property
    def n_extra(self) -> int:
        return 1 if self.nu2 is None else 2

    def set_term_at(self, beta: float, params: LiftParams) -> float:
        """The closed-form set term at explicit lift parameters; raises
        ConstraintViolatedError unless c3/(4*gamma) < 1/2."""
        params.require_convergent()
        extras = (params.nu1, params.c3 * params.nu2)[:self.n_extra]
        k0, d = self.k_term(params.b, extras)[0]
        return params.gamma + (k0 + beta * d) / params.c3

    def residual(self, alpha: float, eps: float) -> Callable[[float], tuple[float, float]]:
        """beta -> (F, F'), the direct residual F = root - sqrt(alpha) + 2*eps
        of direct(beta), which crosses 0 where the direct margin crosses
        -2*eps, and its slope.  Its root is both the direct threshold and
        where the lifted search starts."""
        sqrt_alpha = math.sqrt(alpha)

        def residual(beta):
            root, _, slope = self.direct(beta)
            return root - sqrt_alpha + 2.0 * eps, slope

        return residual

    def method_for(self, method: str) -> str:
        """The method a search of this kind runs when asked for `method`."""
        return method


# --------------------------------------------------------------------------
# the lifted threshold as one ratio maximization
# --------------------------------------------------------------------------

def lifted_total(kind: LiftedKind, params: LiftParams, alpha: float, beta: float) -> float:
    """The closed-form master-condition total at explicit lift parameters:
    -c3/2 + I_set + I_sph, the value every lifted report carries."""
    return -0.5 * params.c3 + kind.set_term_at(beta, params) + i_sph(params.c3, alpha)


def _ratio_profile(kind: LiftedKind, alpha: float, eps: float):
    """profile(q) -> (-R, grad, c3): minus the largest beta that q = [b,
    nu1[, mu]] (a list of floats) certifies over c3, its gradient in q and
    the maximizing c3.

    With K = K0 + beta*D the total is A*c3 + (K0 + beta*D)/c3 + I_sph,
    A = 1/(4b) - 1/2, so it reaches -2*eps at beta = R = (h(c3) - K0)/D,
    h = -c3*(2*eps + A*c3 + I_sph(c3, alpha)).  As d(c3*I_sph)/dc3 =
    2*gamma_hat, h' = -2*(eps + A*c3 + gamma_hat) is decreasing, and it
    vanishes at the positive root of (A/b)*c3**2 + 2*eps*(1-b)/b*c3 +
    4*eps**2 - alpha, taken in cancellation-free form and clipped to
    [max(C3_MIN, mu/NU2_MAX), C3_MAX] so that nu2 = mu/c3 stays in
    SEARCH_BOX.  By the envelope theorem dh/db = c3**2/(4*b**2), plus, in mu,
    h'/NU2_MAX when c3 sits on the edge mu/NU2_MAX.  The value is inf (grad
    None) outside the convergent domain and wherever K0, D or their
    gradients are not finite or D <= 0."""
    k_term, c = kind.k_term, alpha - 4.0 * eps * eps

    def profile(q):
        b = q[0]
        if not 0.0 < b < 0.5:
            return math.inf, None, C3_MIN
        a = 0.25 / b - 0.5
        lin = 2.0 * eps * (1.0 - b) / b
        root = 2.0 * c / (lin + math.sqrt(lin * lin + 4.0 * a / b * c))
        lo = max(C3_MIN, q[2] / NU2_MAX) if len(q) > 2 else C3_MIN
        c3 = min(max(root, lo), C3_MAX)
        (k0, d), grads = k_term(b, q[1:])
        if not (math.isfinite(k0) and d > 0.0):
            return math.inf, None, c3
        ratio = (-c3 * (2.0 * eps + a * c3 + i_sph(c3, alpha)) - k0) / d
        dh = [c3 * c3 / (4.0 * b * b)] + [0.0] * (len(q) - 1)
        if c3 == lo > C3_MIN:
            dh[2] = -2.0 * (eps + a * c3 + sphere_gamma_hat(c3, alpha)) / NU2_MAX
        grad = [(dk - dhi + ratio * dd) / d for dhi, dk, dd in zip(dh, *grads)]
        if not (math.isfinite(ratio) and all(map(math.isfinite, grad))):
            return math.inf, None, c3
        return -ratio, grad, c3

    return profile


def lifted_threshold(kind: LiftedKind, alpha: float, eps: float,
                     tol_beta: float) -> tuple[float, LiftParams]:
    """(beta, params): the largest beta the lifted family certifies at
    alpha, as max over q of _ratio_profile's R, with the lift parameters
    that certify it, in SEARCH_BOX.

    One numerics.projected_bfgs run (stopping on _FATOL and _MAX_ITER)
    starts at b = 1/4 with the direct optimum at the direct residual's root
    (solved to tol_beta/4, which is all tol_beta sets here): its nu1, and
    mu = c3*nu2 at c3 = 2b*sqrt(alpha/(1 - 2b)), the maximizing c3 at
    b = 1/4 as eps -> 0.  While the value at the start is infinite, b is
    halved.  beta is -inf where no start in reach has a finite ratio."""
    _, direct = _direct_point(kind, newton_root(kind.residual(alpha, eps), BETA_FLOOR,
                                                kind.cap, tol_beta / 4.0))
    q = [0.25, direct.nu1, math.sqrt(0.5 * alpha) * direct.nu2][:1 + kind.n_extra]
    profile = _ratio_profile(kind, alpha, eps)
    while True:
        q, (f, _, c3) = projected_bfgs(profile, q, _Q_BOX[:len(q)], fatol=_FATOL,
                                       max_iter=_MAX_ITER)
        if f < math.inf or q[0] <= B_MIN:
            break
        q[0] = max(0.5 * q[0], B_MIN)
    nu2 = min(q[2] / c3, NU2_MAX) if len(q) > 2 else 0.0
    return -f, LiftParams(c3=c3, gamma=c3 / (4.0 * q[0]), nu1=q[1], nu2=nu2)


def _direct_point(kind: LiftedKind, beta: float) -> tuple[float, LiftParams]:
    """(root, params): the direct (c3 -> 0) optimum at beta, root being
    compared with sqrt(alpha), as c3 = 0 lift parameters (gamma = root/2)."""
    root, nu1, _ = kind.direct(beta)
    gamma = max(root, 1e-12) / 2.0
    nu2 = 0.0 if kind.nu2 is None else kind.nu2(beta, nu1, gamma)
    return root, LiftParams(c3=0.0, gamma=gamma, nu1=nu1, nu2=nu2)


def direct_margin(kind: LiftedKind, alpha: float, beta: float) -> tuple[float, LiftParams]:
    """The direct condition margin root - sqrt(alpha), with _direct_point's params."""
    root, params = _direct_point(kind, beta)
    return root - math.sqrt(alpha), params


def lifted_margin(kind: LiftedKind, alpha: float, beta: float) -> tuple[float, LiftParams]:
    """The lifted condition margin at (alpha, beta): the closed-form total
    at beta of the parameters lifted_threshold reports (default eps and
    tol_beta), whose sign decides beta, with those parameters.  At the
    threshold search's reported beta it is the search's own margin.
    Raises DomainError outside the kind's beta range."""
    kind.direct(beta)
    _, params = lifted_threshold(kind, alpha, DEFAULT.feasibility_margin, DEFAULT.tol_beta)
    return lifted_total(kind, params, alpha, beta), params


# --------------------------------------------------------------------------
# threshold search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakKind:
    """A weak kind: its one route is its exact weak boundary, reported as
    method "direct".  boundary(beta) -> (alpha_w, slope) is the boundary,
    concave and increasing in beta, and its beta-derivative; cap is the
    largest beta searched."""

    boundary: Callable[[float], tuple[float, float]]
    cap: float = 1.0 - 1e-6

    def residual(self, alpha: float, eps: float) -> Callable[[float], tuple[float, float]]:
        """beta -> (F, F'), the weak residual F = alpha_w(beta) - alpha + 2*eps,
        which crosses 0 where the weak margin crosses -2*eps, and its slope."""
        def residual(beta):
            alpha_w, slope = self.boundary(beta)
            return alpha_w - alpha + 2.0 * eps, slope

        return residual

    def method_for(self, method: str) -> str:
        """The method a search of this kind runs when asked for `method`."""
        return "direct"


# the module holding each threshold kind <name>: its spec <NAME> (a
# LiftedKind or a WeakKind) and its margin
# <name>_margin_<method>(alpha, beta) -> (margin, params or None) for each
# method the spec has
_KIND_MODULES = {"weak": "thresholds_general", "sectional": "thresholds_general",
                 "strong": "thresholds_general", "weak_nonneg": "thresholds_nonneg",
                 "strong_nonneg": "thresholds_nonneg"}


@functools.cache
def kind_module(kind: str):
    """The module of a threshold kind, imported on first use because the
    kind modules import this one."""
    return importlib.import_module(f".{_KIND_MODULES[kind]}", __package__)


def kind_table() -> dict[str, LiftedKind | WeakKind]:
    """name -> spec of every threshold kind, read from its module at call
    time, so that a tracer's or a test's rebinding of a spec is seen."""
    return {name: getattr(kind_module(name), name.upper()) for name in _KIND_MODULES}


def threshold_bisect(
    alpha: float,
    kind: str,
    method: str = "lifted",
    config: Config = DEFAULT,
) -> ThresholdResult:
    """Largest beta whose condition is feasible at alpha (to config.tol_beta
    for a direct or weak kind).

    Feasibility at beta means the kind's condition margin is strictly below
    -config.feasibility_margin (eps); the strict cut keeps boundary noise
    from being declared feasible.  A weak kind has one
    route, its weak boundary, and reports it as "direct" whatever method
    is asked for.  Every method ends in one range check: if the beta to
    report is infeasible, it is BETA_FLOOR, and ThresholdRangeError is raised.

    A lifted kind reports lifted_threshold's beta, up to the cap and at
    least BETA_FLOOR, with its parameters and their closed-form total
    there, about -2*eps, as the margin; its margin function is not called.
    A direct or weak kind is one numerics.newton_root solve from BETA_FLOOR
    (steps below tol_beta/4 end it) on its residual, which crosses 0 where
    the margin is -2*eps; no iterate passes that crossing, so the margin,
    evaluated once at the beta reported, is at most -2*eps up to rounding
    unless the residual is not negative at the floor.
    """
    if kind not in _KIND_MODULES:
        raise DomainError(f"kind must be one of {tuple(_KIND_MODULES)}, got {kind!r}")
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    module = kind_module(kind)
    spec = getattr(module, kind.upper())
    method = spec.method_for(method)
    eps, tol_beta = config.feasibility_margin, config.tol_beta
    if method == "lifted":
        beta, p_lo = lifted_threshold(spec, alpha, eps, tol_beta)
        lo = max(min(beta, spec.cap), BETA_FLOOR)
        m_lo = lifted_total(spec, p_lo, alpha, lo)
    else:
        lo = newton_root(spec.residual(alpha, eps), BETA_FLOOR, spec.cap, tol_beta / 4.0)
        m_lo, p_lo = getattr(module, f"{kind}_margin_{method}")(alpha, lo)
    if not m_lo < -eps:
        raise ThresholdRangeError(
            f"condition already infeasible at beta={lo} for alpha={alpha} "
            f"({kind}/{method}); threshold below the bisection floor"
        )
    return ThresholdResult(alpha=alpha, beta=lo, method=method, kind=kind,
                           params_at_optimum=p_lo, condition_margin=m_lo)
