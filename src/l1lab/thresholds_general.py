"""Threshold conditions for a general unknown vector.

Three families live here:

* the exact weak phase-transition boundary alpha_w(beta), the statistical
  dimension of the l1 descent cone: a one-variable convex minimum, shared
  with the nonnegative weak kind;
* the sectional bounds: a one-variable direct condition
  min_nu sqrt(radicand(beta, nu)) < sqrt(alpha), and its lifted parent whose
  set term combines two per-coordinate exponential moments, one over the
  support block and one over the complement;
* the strong bounds: the direct condition built from two truncated Gaussian
  second moments split at c_nu = sqrt(2)*erfinv(1-beta), and the lifted
  parent whose exponent t(h) is the larger of two quadratic branches, making
  the moment E exp(c3*t) piecewise with three closed-form regimes.

Closed forms are expressed through gaussian_quadratic_integral, which is the
analytic antiderivative of each branch; the quadrature oracle in lift_core
re-evaluates the same moments numerically and is the authority whenever the
two disagree.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numerics as nm
from .errors import DomainError, NegativeRadicandError
from .lift_core import ExpPiece, LiftedKind, LiftParams, WeakKind, direct_margin, lifted_margin
from .numerics import phi

SQRT2 = nm.SQRT2
SQRT2PI = nm.SQRT2PI
SQRT_2_OVER_PI = nm.SQRT_2_OVER_PI


def _gauss_upper_prob(x: float) -> float:
    """P(N(0,1) >= x) without cancellation."""
    return 0.5 * float(nm.erfc(x / SQRT2))


# --------------------------------------------------------------------------
# weak threshold: the statistical dimension of the l1 descent cone
# --------------------------------------------------------------------------

def statistical_dimension(beta: float, s: float) -> tuple[float, float]:
    """(alpha_w, slope): the exact weak boundary at beta and its beta-derivative.

    alpha_w is the statistical dimension of the l1 descent cone per
    coordinate (Amelunxen, Lotz, McCoy & Tropp, "Living on the edge",
    Information and Inference 3(3), 2014),

        min over tau >= 0 of beta (1 + tau^2) + (1 - beta) s E(g - tau)_+^2,

    s = 2 for general signs and 1 for nonnegative ones.  Half its tau-slope,
    g = beta tau - (1 - beta) s (phi(tau) - tau Q(tau)), is increasing and
    concave, so numerics.newton_minimum finds it, one math.erfc and one
    math.exp per tau.  The objective is affine in beta at fixed tau, so
    alpha_w is concave in beta, and its slope is the objective's at the
    optimal tau, (1 + tau^2) - s E(g - tau)_+^2 = (1 + tau^2 - alpha_w)/(1 - beta).
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    w = (1.0 - beta) * s

    def at(tau):
        q = 0.5 * math.erfc(tau / SQRT2)
        p = math.exp(-0.5 * tau * tau) / SQRT2PI
        on = 1.0 + tau * tau
        return beta * on + w * (on * q - tau * p), beta * tau - w * (p - tau * q), beta + w * q

    alpha_w, tau = nm.newton_minimum(at, 40.0)
    return alpha_w, (1.0 + tau * tau - alpha_w) / (1.0 - beta)


def weak_alpha_of_beta(beta_w: float) -> float:
    """Exact weak threshold alpha_w(beta_w) for general signs."""
    return statistical_dimension(beta_w, 2.0)[0]


WEAK = WeakKind(functools.partial(statistical_dimension, s=2.0))


def weak_margin_direct(alpha, beta):
    return weak_alpha_of_beta(beta) - alpha, None


# --------------------------------------------------------------------------
# sectional bounds
# --------------------------------------------------------------------------

def _sectional_direct_profile(beta: float):
    """nu -> (radicand, g, g') at this beta, where g is half the radicand's
    nu-derivative:

        g  = beta * (nu + sqrt(2/pi)) - 2 (1 - beta) (phi(nu) - nu Q(nu)),
        g' = beta + 2 (1 - beta) Q(nu),

    increasing and concave in nu; each nu costs one erfc and one exp."""
    def at(nu):
        tail = float(nm.erfc(nu / SQRT2))  # 2 Q(nu)
        e = math.exp(-0.5 * nu * nu)  # sqrt(2 pi) phi(nu)
        on_support = nu * nu + 1.0 + 2.0 * SQRT_2_OVER_PI * nu
        off_support = tail * (1.0 + nu * nu) - 2.0 * nu * e / SQRT2PI
        g = beta * (nu + SQRT_2_OVER_PI) - (1.0 - beta) * (2.0 * e / SQRT2PI - nu * tail)
        return (beta * on_support + (1.0 - beta) * off_support, g,
                beta + (1.0 - beta) * tail)

    return at


def sectional_set_term_direct(beta: float, nu: float) -> float:
    """sqrt of the sectional radicand beta * E(|h|+nu)^2
    + (1-beta) * E max(|h|-nu, 0)^2; the direct condition compares its
    minimum over nu >= 0 against sqrt(alpha)."""
    rad = _sectional_direct_profile(beta)(nu)[0]
    if rad < -1e-12:
        raise NegativeRadicandError(
            f"sectional radicand negative ({rad:.3e}) at beta={beta}, nu={nu}"
        )
    return math.sqrt(max(rad, 0.0))


def sectional_direct_minimum(beta: float) -> tuple[float, float]:
    """(min over nu in [0, 12] of the direct sectional set term, minimizing
    nu): the square root of the radicand's Newton minimum."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    rad, nu = nm.newton_minimum(_sectional_direct_profile(beta), 12.0)
    return math.sqrt(rad), nu


def sectional_exp_moments(b: float, nu: float) -> tuple[tuple[float, float], tuple]:
    """The two sectional per-coordinate moments at exponent scale b = c3/(4*gamma),

    plus  = E exp(b * (|h| + nu)^2)
    minus = E exp(b * max(|h| - nu, 0)^2),

    and their gradients in (b, nu): ((plus, minus), (d_plus, d_minus)).

    Equivalent closed forms (expanded through the quadratic-exponential
    integral; convergent iff b < 1/2):
    plus  = exp(b nu^2/(1-2b)) / sqrt(1-2b) * (1 + erf(sqrt(2) b nu / sqrt(1-2b)))
    minus = exp(b nu^2/(1-2b)) / sqrt(1-2b) * erfc(nu / sqrt(2(1-2b))) + erf(nu/sqrt(2))
    Each exponent is continuous in h, so a derivative is the expectation of
    the exponent's derivative times exp(exponent), piece by piece.
    """
    gm = nm.gaussian_quadratic_moments
    p0, p1, p2 = gm(b, -nu, 0.0, 0.0, math.inf)
    m0, m1, m2 = gm(b, nu, 0.0, nu, math.inf)
    plus = 2.0 * p0
    minus = float(nm.erf(nu / SQRT2)) + 2.0 * m0
    return (plus, minus), ((2.0 * p2, 4.0 * b * p1), (2.0 * m2, -4.0 * b * m1))


def sectional_t_plus(h, params: LiftParams):
    """The sectional exponent on the support, (|h| + nu)^2/(4 gamma)."""
    return (np.abs(h) + params.nu1) ** 2 / (4.0 * params.gamma)


def sectional_t_minus(h, params: LiftParams):
    """The sectional exponent off the support, max(|h| - nu, 0)^2/(4 gamma)."""
    return np.maximum(np.abs(h) - params.nu1, 0.0) ** 2 / (4.0 * params.gamma)


def sectional_integrand(params: LiftParams, beta: float):
    """Oracle description of the sectional set term (linear part + pieces)."""
    nu = params.nu1
    pieces = (
        ExpPiece(weight=beta, t=sectional_t_plus, breakpoints=(0.0,)),
        ExpPiece(weight=1.0 - beta, t=sectional_t_minus, breakpoints=(-nu, 0.0, nu)),
    )
    return params.gamma, pieces


def _sectional_k(b, extra):
    """((K0, D), their gradients in (b, nu)) with K0 = log(minus) and
    D = log(plus) - log(minus), so that the set term is
    gamma + (K0 + beta*D)/c3; K0 is inf for nu < 0."""
    nu = extra[0]
    if nu < 0:
        return (math.inf, 0.0), None
    (plus, minus), (d_plus, d_minus) = sectional_exp_moments(b, nu)
    if not (plus > 0 and minus > 0 and math.isfinite(plus) and math.isfinite(minus)):
        return (math.inf, 0.0), None
    log_minus, d_k0 = math.log(minus), tuple(dm / minus for dm in d_minus)
    return ((log_minus, math.log(plus) - log_minus),
            (d_k0, tuple(dp / plus - dk for dp, dk in zip(d_plus, d_k0))))


def _sectional_direct(beta):
    # a call, not the minimum itself, so that a rebinding of that name is seen;
    # at fixed nu the radicand is beta * on + (1 - beta) * off, on = E(|h| + nu)^2,
    # so its beta-slope is on - off = (on - root^2)/(1 - beta)
    root, nu = sectional_direct_minimum(beta)
    on = nu * nu + 1.0 + 2.0 * SQRT_2_OVER_PI * nu
    return root, nu, (on - root * root) / ((1.0 - beta) * 2.0 * root)


SECTIONAL = LiftedKind(k_term=_sectional_k, integrand=sectional_integrand,
                       direct=_sectional_direct, cap=0.9999)


def sectional_margin_direct(alpha, beta):
    return direct_margin(SECTIONAL, alpha, beta)


def sectional_margin_lifted(alpha, beta):
    return lifted_margin(SECTIONAL, alpha, beta)


# --------------------------------------------------------------------------
# strong bounds
# --------------------------------------------------------------------------

def strong_t_integrand(h, params: LiftParams):
    """The strong exponent t(h) = max((|h| + nu1)^2/(4 gamma) - nu2,
    max(|h| - nu1, 0)^2/(4 gamma) + nu2), evaluated piecewise: for |h| >= nu1,
    (h^2 + nu1^2)/(4 gamma) + | |h| nu1 / (2 gamma) - nu2 |; otherwise
    max((|h| + nu1)^2/(4 gamma) - nu2, nu2).  Continuous at |h| = nu1."""
    nu1, nu2, gamma = params.nu1, params.nu2, params.gamma
    if np.any(nu1 < 0) or np.any(nu2 < 0):
        raise DomainError("need nu1, nu2 >= 0")
    h = np.asarray(h, dtype=float)
    ah = np.abs(h)
    g4 = 4.0 * gamma
    outer = (h * h + nu1 ** 2) / g4 + np.abs(ah * nu1 / (2.0 * gamma) - nu2)
    inner = np.maximum((ah + nu1) ** 2 / g4 - nu2, nu2)
    out = np.where(ah >= nu1, outer, inner)
    return float(out) if out.ndim == 0 else out


def strong_exp_moment(b: float, nu1: float, mu: float) -> tuple[float, tuple | None]:
    """E exp(c3 * t(h)) in closed form, dispatched on the branch regime, as
    a function of b = c3/(4 gamma), nu1 and mu = c3 nu2 alone (so
    gamma nu2 = mu/(4b)), and its gradient in (b, nu1, mu).

    Branch exponents (for h >= 0, exploiting symmetry):
      grow:  b (h + nu1)^2 - mu   from (|h|+nu1)^2 branch
      decay: b (h - nu1)^2 + mu   from (|h|-nu1)^2 branch
      flat:  exp(mu) on the interval where the inner max is constant.
    The branches cross at |h| = 2 gamma nu2 / nu1 = mu/(2 b nu1), and the
    plateau ends at sqrt(8 gamma nu2) - nu1 = sqrt(2 mu / b) - nu1.  The
    exponent is continuous in h, so the gradient sums the branch
    derivatives (h -+ nu1)^2, +-2b (h -+ nu1) and -+1 (1 on the plateau)
    against exp(exponent), with no terms from the moving breakpoints.
    """
    if b >= 0.5:
        return math.inf, None
    gm = nm.gaussian_quadratic_moments
    flat = math.exp(mu) if mu < 700 else math.inf
    plateau, dec, grow_lo = 0.0, (0.0, 0.0, 0.0), 0.0
    if nu1 * nu1 < mu / (2.0 * b):
        grow_lo = mu / (2.0 * b * nu1) if nu1 > 0 else math.inf
        plateau = flat * 0.5 * float(nm.erf(nu1 / SQRT2))
        dec = gm(b, nu1, mu, nu1, grow_lo)
    elif nu1 * nu1 < 2.0 * mu / b:
        grow_lo = math.sqrt(2.0 * mu / b) - nu1
        plateau = flat * 0.5 * float(nm.erf(grow_lo / SQRT2))
    g0, g1, g2 = gm(b, -nu1, -mu, grow_lo, math.inf)
    d0, d1, d2 = dec
    return (2.0 * (plateau + d0 + g0),
            (2.0 * (d2 + g2), 4.0 * b * (g1 - d1), 2.0 * (plateau + d0 - g0)))


def strong_integrand(params: LiftParams, beta: float):
    """Oracle description of the strong set term."""
    gamma, nu1, nu2 = params.gamma, params.nu1, params.nu2
    breaks = {0.0, nu1, -nu1}
    if nu1 > 0:
        cross = 2.0 * gamma * nu2 / nu1
        breaks.update((cross, -cross))
    start = math.sqrt(8.0 * gamma * nu2) - nu1
    if start > 0:
        breaks.update((start, -start))

    linear = nu2 * (2.0 * beta - 1.0) + gamma
    return linear, (ExpPiece(weight=1.0, t=strong_t_integrand,
                             breakpoints=tuple(sorted(breaks))),)


def multiplier_k(moment_and_grad, mu: float):
    """((K0, D), their gradients in (b, nu1, mu)) of a strong kind from its
    moment M and M's gradient: K0 = log M - mu and D = 2*mu, so that the
    set term nu2*(2*beta - 1) + gamma + log(M)/c3 is
    gamma + (K0 + beta*D)/c3; K0 is inf where M is not finite and positive."""
    moment, grad = moment_and_grad
    if not (math.isfinite(moment) and moment > 0):
        return (math.inf, 0.0), None
    return (math.log(moment) - mu, 2.0 * mu), (
        (grad[0] / moment, grad[1] / moment, grad[2] / moment - 1.0), (0.0, 0.0, 2.0))


def _strong_k(b, extra):
    """multiplier_k of E exp(c3 t); K0 is inf for negative multipliers."""
    nu1, mu = extra
    if nu1 < 0 or mu < 0:
        return (math.inf, 0.0), None
    return multiplier_k(strong_exp_moment(b, nu1, mu), mu)


def strong_crossover(beta: float) -> float:
    """c_nu = sqrt(2) * erfinv(1 - beta): the |h| level splitting the direct
    strong integrals, chosen so the upper tail carries probability beta."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    return SQRT2 * nm.erfinv(1.0 - beta)


def _strong_direct_profile(beta: float):
    """(c_nu, nu -> (W, g, g')) at this beta, where g = W'/4:

        g = nu Q(nu) - phi(nu) + 2 phi(c_nu),   g' = Q(nu),

    increasing and concave in nu.  The beta-only terms (c_nu, Q(c_nu),
    phi(c_nu)) are computed once, so each nu costs one erfc and one exp."""
    c = strong_crossover(beta)
    q_c = _gauss_upper_prob(c)
    phi_c = phi(c)

    def at(nu):
        nu = min(nu, c)
        q_nu = _gauss_upper_prob(nu)
        phi_nu = phi(nu)
        upper = 2.0 * ((1.0 + nu * nu) * q_c + (c + 2.0 * nu) * phi_c)
        mid = 2.0 * ((1.0 + nu * nu) * (q_nu - q_c) + (2.0 * nu - c) * phi_c - nu * phi_nu)
        return upper + mid, nu * q_nu - phi_nu + 2.0 * phi_c, q_nu

    return c, at


def strong_direct_value(beta: float, nu: float) -> float:
    """The direct strong comparison quantity

        W = int_{|h|>=c_nu} (|h|+nu)^2 dPhi + int_{nu<=|h|<c_nu} (|h|-nu)^2 dPhi

    evaluated by exact Gaussian moment integration (this is the integral
    form; the published single-line closed form is cross-checked in tests,
    with its exponent read as exp(-nu^2/2)).
    """
    return _strong_direct_profile(beta)[1](nu)[0]


def strong_direct_minimum(beta: float) -> tuple[float, float]:
    """(min over nu in [0, c_nu] of W, minimizing nu), by Newton on W'."""
    c, at = _strong_direct_profile(beta)
    return nm.newton_minimum(at, c)


def _strong_direct(beta):
    # beta moves only c_nu, by -1/(2 phi(c_nu)), so W's beta-slope is 4 c_nu nu
    w, nu = strong_direct_minimum(beta)
    root = math.sqrt(max(w, 0.0))
    return root, nu, 2.0 * strong_crossover(beta) * nu / root


def _strong_nu2(beta, nu1, gamma):
    return strong_crossover(beta) * nu1 / (2.0 * gamma)


# strong set definitions need k <= n/2
STRONG = LiftedKind(k_term=_strong_k, integrand=strong_integrand,
                    direct=_strong_direct, cap=0.5 - 1e-9, nu2=_strong_nu2)


def strong_margin_direct(alpha, beta):
    return direct_margin(STRONG, alpha, beta)


def strong_margin_lifted(alpha, beta):
    return lifted_margin(STRONG, alpha, beta)
