"""Threshold conditions when the unknown vector is a priori nonnegative.

Sign knowledge shrinks the adversarial null-space set, so every bound here
dominates its general-x counterpart.  The module mirrors thresholds_general:

* the nonnegative weak characterization (exact boundary);
* the direct strong bound, two truncated Gaussian second moments split at
  c_nu_plus = -sqrt(2)*erfinv(1 - 2*beta), which is negative for beta < 1/2
  (the sum is compared against alpha directly, it is already the squared
  quantity), plus the older fixed-point form kept as an alternate evaluator;
* the lifted strong bound, whose exponent t(h) is asymmetric in h: a growing
  quadratic branch for h >= nu1, a constant plateau in the middle, and a
  decaying-entry branch below nu1 - sqrt(8*gamma*nu2).

The three lifted moment pieces are integrated analytically through
gaussian_quadratic_integral.  The published one-line coefficients for the
outer pieces absorb the 1/(2*sqrt(2)) normalization of the Gaussian
integral; the forms here are re-derived from the exponent definition and
validated against the quadrature oracle, which is authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import DomainError
from .lift_core import ExpPiece, LiftedKind, LiftParams, direct_margin, lifted_margin

SQRT2 = nm.SQRT2
SQRT2PI = nm.SQRT2PI


def _phi(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / SQRT2PI


def _gauss_cdf(x: float) -> float:
    return 0.5 * (1.0 + float(nm.erf(x / SQRT2)))


# --------------------------------------------------------------------------
# weak characterization, nonnegative variant
# --------------------------------------------------------------------------

def weak_nonneg_characterization(alpha: float, beta: float) -> float:
    """Residual of the nonnegative weak characterization:
    (1-b) sqrt(1/(2 pi)) exp(-erfinv(2(1-a)/(1-b) - 1)^2) / a
      - sqrt(2) erfinv(2(1-a)/(1-b) - 1)."""
    u = 2.0 * (1.0 - alpha) / (1.0 - beta) - 1.0
    if u >= 1.0:   # alpha at or below beta: the deep-failure limit
        return -math.inf
    if u <= -1.0:  # alpha at or above 1: the deep-success limit
        return math.inf
    e = nm.erfinv(u)
    return ((1.0 - beta) * math.exp(-e * e) / (SQRT2PI * alpha)) - SQRT2 * e


def weak_nonneg_alpha_of_beta(beta: float) -> float:
    """Exact nonnegative weak threshold alpha_w+(beta), residual <= 1e-10.

    The erfinv argument stays inside (-1, 1) exactly for alpha in (beta, 1),
    which is the scanned bracket.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    lo = max(beta + 1e-12 * (1.0 - beta), float(np.nextafter(beta, 1.0)))
    hi = 1.0 - 1e-13
    f = lambda a: weak_nonneg_characterization(a, beta)
    return nm.find_root(f, nm.Bracket(lo, hi), tol=1e-13)


# --------------------------------------------------------------------------
# direct strong bound (nonnegative)
# --------------------------------------------------------------------------

def nonneg_crossover(beta: float) -> float:
    """c_nu_plus = -sqrt(2) * erfinv(1 - 2*beta): the (negative, for
    beta < 1/2) level with P(h <= c_nu_plus) = beta."""
    if not 0.0 < beta < 0.5:
        raise DomainError(f"nonnegative strong kinds require beta in (0, 0.5), got {beta}")
    return -SQRT2 * float(nm.erfinv(1.0 - 2.0 * beta))


def strong_nonneg_direct_value(beta: float, nu1: float) -> float:
    """The direct comparison quantity (already squared; compare with alpha):

        V = int_{h <= c_nu_plus} (h - nu1)^2 dPhi + int_{h >= nu1} (h - nu1)^2 dPhi

    by exact Gaussian moment integration.  Matches the sum of the three
    published S terms once their stray exponents are read as exp(-nu1^2/2);
    see strong_nonneg_direct_closed.
    """
    if nu1 < 0:
        raise DomainError("nu1 must be nonnegative")
    c = nonneg_crossover(beta)
    phi_c = float(_phi(c))
    phi_nu = float(_phi(nu1))
    cdf_c = float(_gauss_cdf(c))           # equals beta by construction
    upper_prob = 1.0 - float(_gauss_cdf(nu1))
    lower = (1.0 + nu1 * nu1) * cdf_c + (2.0 * nu1 - c) * phi_c
    upper = (1.0 + nu1 * nu1) * upper_prob - nu1 * phi_nu
    return lower + upper


def strong_nonneg_direct_closed(beta: float, nu1: float) -> float:
    """Three-piece form of strong_nonneg_direct_value (S1 + S2 + S3):

    S1 = erfc(nu1/sqrt(2))/2 + nu1 exp(-nu1^2/2)/sqrt(2 pi)
    S2 = beta + sqrt(2) erfinv(1-2 beta) exp(-erfinv(1-2 beta)^2)/sqrt(2 pi)
    S3 = (erfc(nu1/sqrt(2))/2 + beta) nu1^2
         + nu1 sqrt(2/pi) (exp(-erfinv(1-2 beta)^2) - exp(-nu1^2/2))
    """
    e = float(nm.erfinv(1.0 - 2.0 * beta))
    exp_e = math.exp(-e * e)
    exp_n = math.exp(-0.5 * nu1 * nu1)
    q = 0.5 * float(nm.erfc(nu1 / SQRT2))
    s1 = q + nu1 * exp_n / SQRT2PI
    s2 = beta + SQRT2 * e * exp_e / SQRT2PI
    s3 = (q + beta) * nu1 * nu1 + nu1 * math.sqrt(2.0 / math.pi) * (exp_e - exp_n)
    return s1 + s2 + s3


def strong_nonneg_direct_minimum(beta: float) -> tuple[float, float]:
    from .thresholds_general import _scalar_minimum

    return _scalar_minimum(lambda v: strong_nonneg_direct_value(beta, v), 0.0, 10.0)


def strong_nonneg_direct_alpha_fixedpoint(beta: float) -> float:
    """Alternate direct evaluator: the older fixed-point form.

    Solves the theta equation
        sqrt(1/(2 pi)) (e^{-erfinv(1-2 theta)^2} - e^{-erfinv(1-2 beta)^2})
            / (theta + beta) - sqrt(2) erfinv(1 - 2 theta) = 0
    on theta in (0, 1 - beta), then returns
        S1(theta) + S2(beta) - (sqrt(1/(2 pi)) (e^{-E_t^2} - e^{-E_b^2}))^2
            / (theta + beta).
    Kept for comparison against min_nu strong_nonneg_direct_value; the two
    routes are reported side by side rather than reconciled.
    """
    e_b = float(nm.erfinv(1.0 - 2.0 * beta))

    def fix(theta):
        e_t = float(nm.erfinv(1.0 - 2.0 * theta))
        return ((math.exp(-e_t * e_t) - math.exp(-e_b * e_b))
                / (SQRT2PI * (theta + beta)) - SQRT2 * e_t)

    hi = min(1.0 - beta, 0.5) - 1e-12
    theta = nm.find_root(fix, nm.Bracket(1e-12, hi), tol=1e-13)
    e_t = float(nm.erfinv(1.0 - 2.0 * theta))

    def s_term(x, e_x):
        return x + SQRT2 * e_x * math.exp(-e_x * e_x) / SQRT2PI

    gap = (math.exp(-e_t * e_t) - math.exp(-e_b * e_b)) / SQRT2PI
    return s_term(theta, e_t) + s_term(beta, e_b) - gap * gap / (theta + beta)


# --------------------------------------------------------------------------
# lifted strong bound (nonnegative)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NonnegStrongParams:
    """Lift parameters of the nonnegative strong exponent.

    p_plus = c3/(4 gamma) must stay below 1/2 for the moments to converge;
    entry_point is where the decaying branch meets the plateau.
    """

    c3: float
    gamma: float
    nu1: float
    nu2s: float

    def __post_init__(self):
        if self.c3 < 0 or self.gamma <= 0 or self.nu1 < 0 or self.nu2s < 0:
            raise DomainError("need c3, nu1, nu2s >= 0 and gamma > 0")

    @property
    def p_plus(self):
        return self.c3 / (4.0 * self.gamma)

    @property
    def entry_point(self):
        """Left edge of the constant plateau: nu1 - sqrt(8 gamma nu2s)."""
        return self.nu1 - math.sqrt(8.0 * self.gamma * self.nu2s)

    @classmethod
    def from_lift_params(cls, params: LiftParams) -> "NonnegStrongParams":
        return cls(c3=params.c3, gamma=params.gamma, nu1=params.nu1, nu2s=params.nu2)


def nonneg_t_integrand(h, params: NonnegStrongParams):
    """Asymmetric three-branch exponent:
        (h - nu1)^2/(4 gamma) - nu2s   for h <= nu1 - sqrt(8 gamma nu2s)
        nu2s                           on the middle interval
        (h - nu1)^2/(4 gamma) + nu2s   for h >= nu1.
    Both crossings are continuous."""
    h = np.asarray(h, dtype=float)
    g4 = 4.0 * params.gamma
    quad = (h - params.nu1) ** 2 / g4
    out = np.where(
        h >= params.nu1,
        quad + params.nu2s,
        np.where(h <= params.entry_point, quad - params.nu2s, params.nu2s),
    )
    return float(out) if out.ndim == 0 else out


def nonneg_exp_moment(c3: float, gamma: float, nu1: float, nu2: float) -> float:
    """E exp(c3 * t_plus(h)) assembled from the three branches."""
    p = c3 / (4.0 * gamma)
    if p >= 0.5:
        return math.inf
    gq = nm.gaussian_quadratic_integral
    s_lin = -2.0 * p * nu1
    c_low = p * nu1 * nu1 - c3 * nu2
    c_high = p * nu1 * nu1 + c3 * nu2
    entry = nu1 - math.sqrt(8.0 * gamma * nu2)
    flat = math.exp(c3 * nu2) if c3 * nu2 < 700 else math.inf
    left = gq(p, s_lin, c_low, -math.inf, entry)
    middle = flat * (_gauss_cdf(nu1) - _gauss_cdf(entry))
    right = gq(p, s_lin, c_high, nu1, math.inf)
    return left + middle + right


def nonneg_strong_integrand(params: LiftParams, beta: float):
    """Oracle description of the nonnegative strong set term."""
    npar = NonnegStrongParams.from_lift_params(params)
    p = npar.p_plus
    sig = 1.0 / math.sqrt(1.0 - 2.0 * p)
    drift = 2.0 * p * npar.nu1 / (1.0 - 2.0 * p)
    reach = npar.nu1 + math.sqrt(8.0 * npar.gamma * npar.nu2s)
    hw = reach + drift + 13.0 * sig + 2.0

    def t(h):
        return nonneg_t_integrand(h, npar)

    linear = npar.nu2s * (2.0 * beta - 1.0) + npar.gamma
    breaks = (npar.entry_point, npar.nu1)
    return linear, (ExpPiece(weight=1.0, t=t, breakpoints=breaks, half_width=hw),)


def _nonneg_set_term_raw(c3, gamma, extra, beta):
    """nu2*(2*beta - 1) + gamma + log(E exp(c3 t_plus)) / c3; inf for negative nus."""
    nu1, nu2 = extra
    if nu1 < 0 or nu2 < 0:
        return math.inf
    moment = nonneg_exp_moment(c3, gamma, nu1, nu2)
    if not (math.isfinite(moment) and moment > 0):
        return math.inf
    return nu2 * (2.0 * beta - 1.0) + gamma + math.log(moment) / c3


def _nonneg_direct(beta):
    v, nu = strong_nonneg_direct_minimum(beta)
    return math.sqrt(max(v, 0.0)), nu


def _nonneg_nu2(beta, nu1, gamma):
    return (nonneg_crossover(beta) - nu1) ** 2 / (8.0 * gamma)


STRONG_NONNEG = LiftedKind(set_term=_nonneg_set_term_raw, integrand=nonneg_strong_integrand,
                           direct=_nonneg_direct, nu2=_nonneg_nu2)


def strong_nonneg_set_term_lifted(beta: float, params: LiftParams) -> float:
    """The lifted nonnegative strong set term at explicit LiftParams."""
    return STRONG_NONNEG.set_term_at(beta, params)


def strong_nonneg_margin_direct(alpha, beta, warm=None):
    return direct_margin(STRONG_NONNEG, alpha, beta)


def strong_nonneg_margin_lifted(alpha, beta, warm=None):
    return lifted_margin(STRONG_NONNEG, alpha, beta, warm)
