"""Threshold conditions when the unknown vector is a priori nonnegative.

Sign knowledge shrinks the adversarial null-space set, so every bound here
dominates its general-x counterpart.  The module mirrors thresholds_general:

* the nonnegative weak characterization (exact boundary);
* the direct strong bound, two truncated Gaussian second moments split at
  c_nu_plus = -sqrt(2)*erfinv(1 - 2*beta), which is negative for beta < 1/2
  (the sum is compared against alpha directly, it is already the squared
  quantity);
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

import functools
import math

import numpy as np

from . import numerics as nm
from .errors import DomainError
from .lift_core import ExpPiece, LiftedKind, LiftParams, direct_margin, lifted_margin
from .numerics import phi
from .thresholds_general import multiplier_k, weak_boundary

SQRT2 = nm.SQRT2
SQRT2PI = nm.SQRT2PI


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
    return weak_boundary(weak_nonneg_characterization, beta)


# --------------------------------------------------------------------------
# direct strong bound (nonnegative)
# --------------------------------------------------------------------------

def nonneg_crossover(beta: float) -> float:
    """c_nu_plus = -sqrt(2) * erfinv(1 - 2*beta): the (negative, for
    beta < 1/2) level with P(h <= c_nu_plus) = beta."""
    if not 0.0 < beta < 0.5:
        raise DomainError(f"nonnegative strong kinds require beta in (0, 0.5), got {beta}")
    return -SQRT2 * float(nm.erfinv(1.0 - 2.0 * beta))


def _nonneg_direct_profile(beta: float):
    """nu1 -> (V, g, g') at this beta for nu1 >= 0, where g = V'/2:

        g = nu1 (beta + Q(nu1)) + phi(c_nu_plus) - phi(nu1),   g' = beta + Q(nu1),

    increasing and concave in nu1.  The beta-only terms (c_nu_plus,
    Phi(c_nu_plus), phi(c_nu_plus)) are computed once, so each nu1 costs one
    erf and one exp."""
    c = nonneg_crossover(beta)
    phi_c = phi(c)
    cdf_c = _gauss_cdf(c)  # equals beta by construction

    def at(nu1):
        phi_nu = phi(nu1)
        upper_prob = 1.0 - _gauss_cdf(nu1)
        lower = (1.0 + nu1 * nu1) * cdf_c + (2.0 * nu1 - c) * phi_c
        upper = (1.0 + nu1 * nu1) * upper_prob - nu1 * phi_nu
        slope = beta + upper_prob
        return lower + upper, nu1 * slope + phi_c - phi_nu, slope

    return at


def strong_nonneg_direct_value(beta: float, nu1: float) -> float:
    """The direct comparison quantity (already squared; compare with alpha):

        V = int_{h <= c_nu_plus} (h - nu1)^2 dPhi + int_{h >= nu1} (h - nu1)^2 dPhi

    by exact Gaussian moment integration.  Matches the sum of the three
    published S terms once their stray exponents are read as exp(-nu1^2/2)
    (cross-checked in the tests).
    """
    if nu1 < 0:
        raise DomainError("nu1 must be nonnegative")
    return _nonneg_direct_profile(beta)(nu1)[0]


def strong_nonneg_direct_minimum(beta: float) -> tuple[float, float]:
    """(min over nu1 in [0, 10] of V, minimizing nu1), by Newton on V'."""
    return nm.newton_minimum(_nonneg_direct_profile(beta), 10.0)


# --------------------------------------------------------------------------
# lifted strong bound (nonnegative)
# --------------------------------------------------------------------------

def nonneg_t_integrand(h, params: LiftParams):
    """Asymmetric three-branch exponent:
        (h - nu1)^2/(4 gamma) - nu2    for h <= nu1 - sqrt(8 gamma nu2)
        nu2                            on the middle interval
        (h - nu1)^2/(4 gamma) + nu2    for h >= nu1.
    Both crossings are continuous."""
    nu1, nu2 = params.nu1, params.nu2
    if nu1 < 0 or nu2 < 0:
        raise DomainError("need nu1, nu2 >= 0")
    h = np.asarray(h, dtype=float)
    quad = (h - nu1) ** 2 / (4.0 * params.gamma)
    entry = nu1 - math.sqrt(8.0 * params.gamma * nu2)  # left edge of the plateau
    out = np.where(h >= nu1, quad + nu2, np.where(h <= entry, quad - nu2, nu2))
    return float(out) if out.ndim == 0 else out


def nonneg_exp_moment(b: float, nu1: float, mu: float) -> tuple[float, tuple | None]:
    """E exp(c3 * t_plus(h)) assembled from the three branches, as a
    function of b = c3/(4 gamma), nu1 and mu = c3 nu2 alone, and its
    gradient in (b, nu1, mu): the plateau value is exp(mu) and its left
    edge nu1 - sqrt(8 gamma nu2) is nu1 - sqrt(2 mu / b).  The exponent is
    continuous in h, so the gradient sums the branch derivatives
    (h - nu1)^2, -2b (h - nu1) and -+1 (1 on the plateau) against
    exp(exponent), with no terms from the moving breakpoints."""
    if b >= 0.5:
        return math.inf, None
    gm = nm.gaussian_quadratic_moments
    entry = nu1 - math.sqrt(2.0 * mu / b)
    flat = math.exp(mu) if mu < 700 else math.inf
    l0, l1, l2 = gm(b, nu1, -mu, -math.inf, entry)
    middle = flat * (_gauss_cdf(nu1) - _gauss_cdf(entry))
    r0, r1, r2 = gm(b, nu1, mu, nu1, math.inf)
    return l0 + middle + r0, (l2 + r2, -2.0 * b * (l1 + r1), middle + r0 - l0)


def nonneg_strong_integrand(params: LiftParams, beta: float):
    """Oracle description of the nonnegative strong set term."""
    gamma, nu1, nu2 = params.gamma, params.nu1, params.nu2
    linear = nu2 * (2.0 * beta - 1.0) + gamma
    breaks = (nu1 - math.sqrt(8.0 * gamma * nu2), nu1)
    t = functools.partial(nonneg_t_integrand, params=params)
    return linear, (ExpPiece(weight=1.0, t=t, breakpoints=breaks),)


def _nonneg_k(b, extra, beta):
    """multiplier_k of E exp(c3 t_plus); K is inf for negative multipliers."""
    nu1, mu = extra
    if nu1 < 0 or mu < 0:
        return math.inf, None
    return multiplier_k(nonneg_exp_moment(b, nu1, mu), mu, beta)


def _nonneg_direct(beta):
    v, nu = strong_nonneg_direct_minimum(beta)
    return math.sqrt(max(v, 0.0)), nu


def _nonneg_nu2(beta, nu1, gamma):
    return (nonneg_crossover(beta) - nu1) ** 2 / (8.0 * gamma)


STRONG_NONNEG = LiftedKind(k_term=_nonneg_k, integrand=nonneg_strong_integrand,
                           direct=_nonneg_direct, nu2=_nonneg_nu2)


def strong_nonneg_margin_direct(alpha, beta, warm=None):
    return direct_margin(STRONG_NONNEG, alpha, beta)


def strong_nonneg_margin_lifted(alpha, beta, warm=None):
    return lifted_margin(STRONG_NONNEG, alpha, beta, warm)
