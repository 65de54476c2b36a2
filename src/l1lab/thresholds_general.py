"""Threshold conditions for a general unknown vector.

Three families live here:

* the weak characterization, an equation in (alpha, beta) whose root in
  alpha is the exact weak phase-transition boundary;
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

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import DomainError, NegativeRadicandError
from .lift_core import ExpPiece, LiftedKind, LiftParams, direct_margin, lifted_margin

SQRT2 = nm.SQRT2
SQRT2PI = nm.SQRT2PI
SQRT_2_OVER_PI = nm.SQRT_2_OVER_PI


def _phi(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / SQRT2PI


def _gauss_upper_prob(x):
    """P(N(0,1) >= x) without cancellation."""
    return 0.5 * nm.erfc(np.asarray(x, dtype=float) / SQRT2)


# --------------------------------------------------------------------------
# weak threshold: fundamental characterization
# --------------------------------------------------------------------------

def weak_characterization(alpha: float, beta_w: float) -> float:
    """Residual of the weak-threshold characterization at (alpha, beta_w).

    (1-b) * sqrt(2/pi) * exp(-erfinv(u)^2) / a - sqrt(2) * erfinv(u),
    u = (1-a)/(1-b).  The root in alpha on (beta_w, 1) is the exact weak
    boundary: recovery succeeds w.h.p. above it and fails below it.
    """
    u = (1.0 - alpha) / (1.0 - beta_w)
    if u >= 1.0:  # alpha at or below beta: the deep-failure limit
        return -math.inf
    e = nm.erfinv(u)
    return (1.0 - beta_w) * SQRT_2_OVER_PI * math.exp(-e * e) / alpha - SQRT2 * e


def weak_alpha_of_beta(beta_w: float) -> float:
    """Exact weak threshold alpha_w(beta_w), solved to residual <= 1e-10."""
    if not 0.0 < beta_w < 1.0:
        raise DomainError(f"beta_w must lie in (0,1), got {beta_w}")
    lo = max(beta_w + 1e-12 * (1.0 - beta_w), float(np.nextafter(beta_w, 1.0)))
    hi = 1.0 - 1e-13
    f = lambda a: weak_characterization(a, beta_w)
    return nm.find_root(f, nm.Bracket(lo, hi), tol=1e-13)


# --------------------------------------------------------------------------
# sectional bounds
# --------------------------------------------------------------------------

def sectional_radicand(beta: float, nu: float) -> float:
    """beta * E(|h|+nu)^2 + (1-beta) * E max(|h|-nu, 0)^2 in closed form."""
    on_support = nu * nu + 1.0 + 2.0 * SQRT_2_OVER_PI * nu
    off_support = (float(nm.erfc(nu / SQRT2)) * (1.0 + nu * nu)
                   - 2.0 * nu * math.exp(-0.5 * nu * nu) / SQRT2PI)
    return beta * on_support + (1.0 - beta) * off_support


def sectional_set_term_direct(beta: float, nu: float) -> float:
    """sqrt of the sectional radicand; the direct condition compares its
    minimum over nu >= 0 against sqrt(alpha)."""
    rad = sectional_radicand(beta, nu)
    if rad < -1e-12:
        raise NegativeRadicandError(
            f"sectional radicand negative ({rad:.3e}) at beta={beta}, nu={nu}"
        )
    return math.sqrt(max(rad, 0.0))


def _scalar_minimum(f, lo, hi, coarse=33):
    """Coarse grid then Brent refinement; robust for the 1-d nu searches."""
    grid = np.linspace(lo, hi, coarse)
    vals = [f(g) for g in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, coarse - 1)]
    if a == b:
        return float(vals[i]), float(grid[i])
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(f, bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12})
    if res.fun <= vals[i]:
        return float(res.fun), float(res.x)
    return float(vals[i]), float(grid[i])


def sectional_direct_minimum(beta: float) -> tuple[float, float]:
    """(min over nu of the direct sectional set term, minimizing nu)."""
    return _scalar_minimum(lambda v: sectional_set_term_direct(beta, v), 0.0, 12.0)


def sectional_exp_moments(b: float, nu: float) -> tuple[float, float]:
    """The two sectional per-coordinate moments at exponent scale b = c3/(4*gamma):

    plus  = E exp(b * (|h| + nu)^2)
    minus = E exp(b * max(|h| - nu, 0)^2)

    Equivalent closed forms (expanded through the quadratic-exponential
    integral; convergent iff b < 1/2):
    plus  = exp(b nu^2/(1-2b)) / sqrt(1-2b) * (1 + erf(sqrt(2) b nu / sqrt(1-2b)))
    minus = exp(b nu^2/(1-2b)) / sqrt(1-2b) * erfc(nu / sqrt(2(1-2b))) + erf(nu/sqrt(2))
    """
    gq = nm.gaussian_quadratic_integral
    plus = 2.0 * gq(b, 2.0 * b * nu, b * nu * nu, 0.0, math.inf)
    minus = float(nm.erf(nu / SQRT2)) + 2.0 * gq(b, -2.0 * b * nu, b * nu * nu, nu, math.inf)
    return plus, minus


def sectional_integrand(params: LiftParams, beta: float):
    """Oracle description of the sectional set term (linear part + pieces)."""
    gamma, nu = params.gamma, params.nu1
    b = params.b
    sig = 1.0 / math.sqrt(1.0 - 2.0 * b)
    drift = 2.0 * b * nu / (1.0 - 2.0 * b)
    hw = nu + drift + 13.0 * sig + 2.0

    def t_plus(h):
        return (np.abs(h) + nu) ** 2 / (4.0 * gamma)

    def t_minus(h):
        return np.maximum(np.abs(h) - nu, 0.0) ** 2 / (4.0 * gamma)

    pieces = (
        ExpPiece(weight=beta, t=t_plus, breakpoints=(0.0,), half_width=hw),
        ExpPiece(weight=1.0 - beta, t=t_minus, breakpoints=(-nu, 0.0, nu), half_width=hw),
    )
    return gamma, pieces


def _sectional_set_term_raw(c3, gamma, extra, beta):
    """gamma + (beta/c3) log(plus) + ((1-beta)/c3) log(minus); inf for nu < 0."""
    b = c3 / (4.0 * gamma)
    nu = extra[0]
    if nu < 0:
        return math.inf
    plus, minus = sectional_exp_moments(b, nu)
    if not (plus > 0 and minus > 0 and math.isfinite(plus) and math.isfinite(minus)):
        return math.inf
    return gamma + beta / c3 * math.log(plus) + (1.0 - beta) / c3 * math.log(minus)


def _sectional_direct(beta):
    # a call, not the minimum itself, so that a rebinding of that name is seen
    return sectional_direct_minimum(beta)


SECTIONAL = LiftedKind(set_term=_sectional_set_term_raw, integrand=sectional_integrand,
                       direct=_sectional_direct)


def sectional_set_term_lifted(beta: float, params: LiftParams) -> float:
    """The lifted sectional set term at explicit LiftParams."""
    return SECTIONAL.set_term_at(beta, params)


def sectional_margin_direct(alpha, beta, warm=None):
    return direct_margin(SECTIONAL, alpha, beta)


def sectional_margin_lifted(alpha, beta, warm=None):
    return lifted_margin(SECTIONAL, alpha, beta, warm)


# --------------------------------------------------------------------------
# strong bounds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongIntegrand:
    """Parameters of the strong exponent t(h) and its closed-form regime.

    t(h) is the larger of the two quadratic branches
        (|h| + nu1)^2 / (4 gamma) - nu2s   and
        max(|h| - nu1, 0)^2 / (4 gamma) + nu2s,
    whose crossing pattern is decided by nu1^2 against 2*gamma*nu2s and
    8*gamma*nu2s; the regime index records which pattern applies.
    """

    nu1: float
    nu2s: float
    gamma_s: float
    regime: int = field(init=False)

    def __post_init__(self):
        if self.nu1 < 0 or self.nu2s < 0 or self.gamma_s <= 0:
            raise DomainError("need nu1, nu2s >= 0 and gamma_s > 0")
        if self.nu1 ** 2 < 2.0 * self.gamma_s * self.nu2s:
            regime = 1
        elif self.nu1 ** 2 < 8.0 * self.gamma_s * self.nu2s:
            regime = 2
        else:
            regime = 3
        object.__setattr__(self, "regime", regime)


def strong_t_integrand(h, s: StrongIntegrand):
    """Exact piecewise exponent: for |h| >= nu1,
    (h^2 + nu1^2)/(4 gamma) + | |h| nu1 / (2 gamma) - nu2s |; otherwise
    max((|h| + nu1)^2/(4 gamma) - nu2s, nu2s).  Continuous at |h| = nu1."""
    h = np.asarray(h, dtype=float)
    ah = np.abs(h)
    g4 = 4.0 * s.gamma_s
    outer = (h * h + s.nu1 ** 2) / g4 + np.abs(ah * s.nu1 / (2.0 * s.gamma_s) - s.nu2s)
    inner = np.maximum((ah + s.nu1) ** 2 / g4 - s.nu2s, s.nu2s)
    out = np.where(ah >= s.nu1, outer, inner)
    return float(out) if out.ndim == 0 else out


def strong_exp_moment(c3: float, gamma: float, nu1: float, nu2: float) -> float:
    """E exp(c3 * t(h)) in closed form, dispatched on the branch regime.

    Branch exponents (for h >= 0, exploiting symmetry):
      grow:  b h^2 + 2 b nu1 h + (b nu1^2 - c3 nu2)   from (|h|+nu1)^2 branch
      decay: b h^2 - 2 b nu1 h + (b nu1^2 + c3 nu2)   from (|h|-nu1)^2 branch
      flat:  exp(c3 nu2) on the interval where the inner max is constant.
    """
    b = c3 / (4.0 * gamma)
    if b >= 0.5:
        return math.inf
    gq = nm.gaussian_quadratic_integral
    s_grow, c_grow = 2.0 * b * nu1, b * nu1 * nu1 - c3 * nu2
    s_dec, c_dec = -2.0 * b * nu1, b * nu1 * nu1 + c3 * nu2
    flat = math.exp(c3 * nu2) if c3 * nu2 < 700 else math.inf

    if nu1 * nu1 < 2.0 * gamma * nu2:
        cross = 2.0 * gamma * nu2 / nu1 if nu1 > 0 else math.inf
        val = (flat * 0.5 * float(nm.erf(nu1 / SQRT2))
               + gq(b, s_dec, c_dec, nu1, cross)
               + gq(b, s_grow, c_grow, cross, math.inf))
    elif nu1 * nu1 < 8.0 * gamma * nu2:
        start = math.sqrt(8.0 * gamma * nu2) - nu1
        val = (flat * 0.5 * float(nm.erf(start / SQRT2))
               + gq(b, s_grow, c_grow, start, math.inf))
    else:
        val = gq(b, s_grow, c_grow, 0.0, math.inf)
    return 2.0 * val


def strong_integrand(params: LiftParams, beta: float):
    """Oracle description of the strong set term."""
    gamma, nu1, nu2 = params.gamma, params.nu1, params.nu2
    b = params.b
    spec = StrongIntegrand(nu1=nu1, nu2s=nu2, gamma_s=gamma)
    sig = 1.0 / math.sqrt(1.0 - 2.0 * b)
    drift = 2.0 * b * nu1 / (1.0 - 2.0 * b)
    reach = nu1 + math.sqrt(8.0 * gamma * nu2)
    hw = reach + drift + 13.0 * sig + 2.0

    breaks = {0.0, nu1, -nu1}
    if nu1 > 0:
        cross = 2.0 * gamma * nu2 / nu1
        breaks.update((cross, -cross))
    start = math.sqrt(8.0 * gamma * nu2) - nu1
    if start > 0:
        breaks.update((start, -start))

    def t(h):
        return strong_t_integrand(h, spec)

    linear = nu2 * (2.0 * beta - 1.0) + gamma
    return linear, (ExpPiece(weight=1.0, t=t, breakpoints=tuple(sorted(breaks)),
                             half_width=hw),)


def _strong_set_term_raw(c3, gamma, extra, beta):
    """nu2*(2*beta - 1) + gamma + log(E exp(c3 t)) / c3; inf for negative nus."""
    nu1, nu2 = extra
    if nu1 < 0 or nu2 < 0:
        return math.inf
    moment = strong_exp_moment(c3, gamma, nu1, nu2)
    if not (math.isfinite(moment) and moment > 0):
        return math.inf
    return nu2 * (2.0 * beta - 1.0) + gamma + math.log(moment) / c3


def strong_crossover(beta: float) -> float:
    """c_nu = sqrt(2) * erfinv(1 - beta): the |h| level splitting the direct
    strong integrals, chosen so the upper tail carries probability beta."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    return SQRT2 * float(nm.erfinv(1.0 - beta))


def strong_direct_value(beta: float, nu: float) -> float:
    """The direct strong comparison quantity

        W = int_{|h|>=c_nu} (|h|+nu)^2 dPhi + int_{nu<=|h|<c_nu} (|h|-nu)^2 dPhi

    evaluated by exact Gaussian moment integration (this is the integral
    form; the published single-line closed form is cross-checked in tests,
    with its exponent read as exp(-nu^2/2)).
    """
    c = strong_crossover(beta)
    nu = min(nu, c)
    q_c = float(_gauss_upper_prob(c))
    q_nu = float(_gauss_upper_prob(nu))
    phi_c = float(_phi(c))
    phi_nu = float(_phi(nu))
    upper = 2.0 * ((1.0 + nu * nu) * q_c + (c + 2.0 * nu) * phi_c)
    mid = 2.0 * ((1.0 + nu * nu) * (q_nu - q_c) + (2.0 * nu - c) * phi_c - nu * phi_nu)
    return upper + mid


def strong_direct_value_closed(beta: float, nu: float) -> float:
    """Single-line form of strong_direct_value:
    (1+nu^2) erfc(nu/sqrt(2)) + (4 nu / sqrt(2 pi)) (2 e^{-erfinv(1-beta)^2} - e^{-nu^2/2}/2)."""
    e = float(nm.erfinv(1.0 - beta))
    return ((1.0 + nu * nu) * float(nm.erfc(nu / SQRT2))
            + 4.0 * nu / SQRT2PI * (2.0 * math.exp(-e * e)
                                    - 0.5 * math.exp(-0.5 * nu * nu)))


def strong_direct_minimum(beta: float) -> tuple[float, float]:
    """(min over nu in [0, c_nu] of W, minimizing nu)."""
    c = strong_crossover(beta)
    return _scalar_minimum(lambda v: strong_direct_value(beta, v), 0.0, c)


def strong_condition_direct(beta: float, alpha: float) -> bool:
    """Direct strong success condition: min_nu W(beta, nu) < alpha."""
    if not 0.0 < beta <= 0.5:
        raise DomainError(f"strong kinds require beta in (0, 0.5], got {beta}")
    return strong_direct_minimum(beta)[0] < alpha


def _strong_direct(beta):
    w, nu = strong_direct_minimum(beta)
    return math.sqrt(max(w, 0.0)), nu


def _strong_nu2(beta, nu1, gamma):
    return strong_crossover(beta) * nu1 / (2.0 * gamma)


STRONG = LiftedKind(set_term=_strong_set_term_raw, integrand=strong_integrand,
                    direct=_strong_direct, nu2=_strong_nu2)


def strong_set_term_lifted(beta: float, params: LiftParams) -> float:
    """The lifted strong set term at explicit LiftParams."""
    return STRONG.set_term_at(beta, params)


def strong_margin_direct(alpha, beta, warm=None):
    return direct_margin(STRONG, alpha, beta)


def strong_margin_lifted(alpha, beta, warm=None):
    return lifted_margin(STRONG, alpha, beta, warm)
