"""Nonnegative-unknown thresholds: weak boundary, strong bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from l1lab import numerics as nm
from l1lab import thresholds_nonneg as tn
from l1lab.errors import DomainError
from l1lab.lift_core import ExpPiece, LiftParams, exp_set_term_oracle
from l1lab.thresholds_general import weak_alpha_of_beta
from weak_characterizations import (alpha_w, weak_characterization,
                                     weak_nonneg_characterization)

SQRT2 = nm.SQRT2
SQRT2PI = nm.SQRT2PI


# ---------------------------------------------------------------------------
# independent evaluators of the direct bound, the published forms the
# library's moment integration is checked against
# ---------------------------------------------------------------------------

def strong_nonneg_direct_closed(beta: float, nu1: float) -> float:
    """Three-piece form of tn.strong_nonneg_direct_value (S1 + S2 + S3):

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


def strong_nonneg_direct_alpha_fixedpoint(beta: float) -> float:
    """Alternate direct evaluator: the older fixed-point form.

    Solves the theta equation
        sqrt(1/(2 pi)) (e^{-erfinv(1-2 theta)^2} - e^{-erfinv(1-2 beta)^2})
            / (theta + beta) - sqrt(2) erfinv(1 - 2 theta) = 0
    on theta in (0, 1 - beta), then returns
        S1(theta) + S2(beta) - (sqrt(1/(2 pi)) (e^{-E_t^2} - e^{-E_b^2}))^2
            / (theta + beta).
    Compared against min_nu tn.strong_nonneg_direct_value.
    """
    e_b = float(nm.erfinv(1.0 - 2.0 * beta))

    def fix(theta):
        e_t = float(nm.erfinv(1.0 - 2.0 * theta))
        return ((math.exp(-e_t * e_t) - math.exp(-e_b * e_b))
                / (SQRT2PI * (theta + beta)) - SQRT2 * e_t)

    hi = min(1.0 - beta, 0.5) - 1e-12
    theta = brentq(fix, 1e-12, hi, xtol=1e-13)
    e_t = float(nm.erfinv(1.0 - 2.0 * theta))

    def s_term(x, e_x):
        return x + SQRT2 * e_x * math.exp(-e_x * e_x) / SQRT2PI

    gap = (math.exp(-e_t * e_t) - math.exp(-e_b * e_b)) / SQRT2PI
    return s_term(theta, e_t) + s_term(beta, e_b) - gap * gap / (theta + beta)


# ---------------------------------------------------------------------------
# weak boundary (nonnegative), and both weak boundaries by a second route
# ---------------------------------------------------------------------------

def test_weak_nonneg_limits_and_residual():
    assert tn.weak_nonneg_alpha_of_beta(0.999) > 0.99
    beta = 0.3
    alpha = tn.weak_nonneg_alpha_of_beta(beta)
    assert beta < alpha < 1.0
    assert abs(weak_nonneg_characterization(alpha, beta)) <= 1e-10


def test_weak_nonneg_monotone_spot():
    assert tn.weak_nonneg_alpha_of_beta(0.3) < tn.weak_nonneg_alpha_of_beta(0.5)


def test_weak_nonneg_needs_fewer_measurements():
    for beta in np.linspace(0.05, 0.9, 12):
        assert tn.weak_nonneg_alpha_of_beta(beta) <= weak_alpha_of_beta(beta) + 1e-12


def statistical_dimension(beta: float, s: float) -> float:
    """alpha_w(beta) as the statistical dimension of the l1 descent cone
    (Amelunxen, Lotz, McCoy & Tropp, "Living on the edge", Information and
    Inference 3(3), 2014): min over tau >= 0 of

        beta (1 + tau^2) + (1 - beta) s E(g - tau)_+^2,

    s = 2 for general signs and 1 for nonnegative ones, with
    E(g - tau)_+^2 = (1 + tau^2) Q(tau) - tau phi(tau).  Its tau-slope is
    2 (beta tau - (1 - beta) s E(g - tau)_+), E(g - tau)_+ =
    phi(tau) - tau Q(tau), which rises from negative at 0 through one root."""
    def phi(t):
        return math.exp(-0.5 * t * t) / SQRT2PI

    def q(t):
        return 0.5 * math.erfc(t / SQRT2)

    tau = brentq(lambda t: beta * t - (1.0 - beta) * s * (phi(t) - t * q(t)), 0.0, 40.0,
                 xtol=1e-15)
    return beta * (1.0 + tau * tau) + (1.0 - beta) * s * ((1.0 + tau * tau) * q(tau)
                                                          - tau * phi(tau))


@pytest.mark.parametrize("s, alpha_of_beta", [(2.0, weak_alpha_of_beta),
                                              (1.0, tn.weak_nonneg_alpha_of_beta)],
                         ids=["weak", "weak_nonneg"])
def test_weak_boundary_is_the_statistical_dimension(s, alpha_of_beta):
    # the library's Newton minimum over tau against brentq on its tau-slope
    for beta in np.arange(1, 1000) / 1000.0:
        assert abs(alpha_of_beta(beta) - statistical_dimension(beta, s)) <= 1e-12, beta


@pytest.mark.parametrize("characterization, alpha_of_beta", [
    (weak_characterization, weak_alpha_of_beta),
    (weak_nonneg_characterization, tn.weak_nonneg_alpha_of_beta)], ids=["weak", "weak_nonneg"])
def test_weak_boundary_solves_the_erfinv_characterization(characterization, alpha_of_beta):
    # a second route to each weak curve: the paper's erfinv characterization,
    # solved in alpha by brentq, agrees with the statistical dimension to
    # 2.5e-14 on this grid
    for beta in np.arange(1, 1000) / 1000.0:
        assert abs(alpha_of_beta(beta) - alpha_w(characterization, beta)) <= 1e-12, beta


# ---------------------------------------------------------------------------
# direct strong bound (nonnegative)
# ---------------------------------------------------------------------------

def test_nonneg_direct_integral_vs_quadrature_and_closed():
    beta, nu = 0.2, 1.0
    c = tn.nonneg_crossover(beta)

    def g(h):
        lower = np.where(h <= c, (h - nu) ** 2, 0.0)
        upper = np.where(h >= nu, (h - nu) ** 2, 0.0)
        return lower + upper

    numeric = nm.gauss_expectation(g, nm.QuadratureSpec(half_width=12.0),
                                   breakpoints=(c, nu))
    assert abs(tn.strong_nonneg_direct_value(beta, nu) - numeric) <= 1e-6
    assert abs(strong_nonneg_direct_closed(beta, nu) - numeric) <= 1e-6


def test_nonneg_direct_beta_to_zero_limit():
    v, nu = tn.strong_nonneg_direct_minimum(1e-5)
    assert v < 5e-3


def test_nonneg_direct_fixedpoint_agrees_with_minimum():
    # two published routes to the same direct bound; they coincide, so the
    # comparison is asserted rather than merely reported
    for beta in (0.02, 0.05, 0.1, 0.2, 0.3):
        fp = strong_nonneg_direct_alpha_fixedpoint(beta)
        mn, _ = tn.strong_nonneg_direct_minimum(beta)
        assert abs(fp - mn) <= 1e-9, (beta, fp, mn)


def test_nonneg_direct_below_classical_at_half():
    from l1lab.lift_core import threshold_bisect

    r = threshold_bisect(0.5, "strong_nonneg", "direct")
    assert r.beta < 0.0667  # classical simplex-neighborliness value


# ---------------------------------------------------------------------------
# lifted strong bound (nonnegative)
# ---------------------------------------------------------------------------

def test_nonneg_t_integrand_branches():
    p = LiftParams(c3=0.5, gamma=1.0, nu1=1.5, nu2=0.2)
    entry = 1.5 - math.sqrt(8 * 1.0 * 0.2)
    # middle branch is the constant nu2s
    mid = 0.5 * (entry + p.nu1)
    assert tn.nonneg_t_integrand(mid, p) == pytest.approx(0.2, abs=1e-15)
    # continuity at both crossings
    for edge in (entry, p.nu1):
        lo = tn.nonneg_t_integrand(edge - 1e-11, p)
        hi = tn.nonneg_t_integrand(edge + 1e-11, p)
        assert abs(lo - hi) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    h=st.floats(-6, 6),
    nu1=st.floats(0, 3),
    nu2=st.floats(0, 3),
    gamma=st.floats(0.1, 3),
)
def test_nonneg_t_integrand_matches_max_form(h, nu1, nu2, gamma):
    p = LiftParams(c3=0.1, gamma=gamma, nu1=nu1, nu2=nu2)
    want = max((h - nu1) ** 2 / (4 * gamma) - nu2,
               (max(h - nu1, 0.0)) ** 2 / (4 * gamma) + nu2)
    assert tn.nonneg_t_integrand(h, p) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_nonneg_degenerate_parameters():
    # nu1 = nu2 = 0: the exponent is h^2/(4*gamma) everywhere, so the moment
    # is E exp(p h^2) = 1/sqrt(1-2p)
    c3, gamma = 0.6, 0.8
    p = c3 / (4 * gamma)
    moment = tn.nonneg_exp_moment(p, 0.0, 0.0)[0]
    assert abs(moment - 1.0 / math.sqrt(1.0 - 2.0 * p)) <= 1e-8
    params = LiftParams(c3=c3, gamma=gamma, nu1=0.0, nu2=0.0)
    closed = tn.STRONG_NONNEG.set_term_at(0.3, params)
    oracle = exp_set_term_oracle(tn.nonneg_strong_integrand, params, 0.3)
    assert abs(closed - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_nonneg_derived_coefficient_fields():
    # the moment scale p_plus is LiftParams.b; the entry point (left edge of
    # the plateau) and nu1 are the oracle's breakpoints
    p = LiftParams(c3=0.8, gamma=1.1, nu1=1.2, nu2=0.7)
    assert p.b == pytest.approx(0.8 / 4.4)
    _, (piece,) = tn.nonneg_strong_integrand(p, 0.3)
    assert piece.breakpoints == pytest.approx((1.2 - math.sqrt(8 * 1.1 * 0.7), 1.2))


@pytest.mark.parametrize("nu1, nu2", [(-0.1, 0.3), (0.5, -0.1)])
def test_nonneg_t_integrand_rejects_negative_multipliers(nu1, nu2):
    with pytest.raises(DomainError):
        tn.nonneg_t_integrand(0.5, LiftParams(c3=0.1, gamma=1.0, nu1=nu1, nu2=nu2))


def test_nonneg_moment_matches_oracle_spot():
    for nu1, nu2 in [(0.3, 1.2), (2.0, 0.4), (1.0, 1.0), (0.0, 0.5)]:
        params = LiftParams(c3=0.7, gamma=1.0, nu1=nu1, nu2=nu2)
        closed = tn.STRONG_NONNEG.set_term_at(0.25, params)
        oracle = exp_set_term_oracle(tn.nonneg_strong_integrand, params, 0.25)
        assert abs(closed - oracle) <= 1e-6 * max(1.0, abs(oracle)), (nu1, nu2)


def test_mirror_invariance_of_expectation():
    # integrating the h -> -h mirrored exponent gives the same moment
    params = LiftParams(c3=0.7, gamma=1.0, nu1=1.1, nu2=0.6)

    def mirrored(params_, beta):
        linear, pieces = tn.nonneg_strong_integrand(params_, beta)
        flipped = tuple(
            ExpPiece(weight=pc.weight,
                     t=(lambda h, params, f=pc.t: f(-h, params)),
                     breakpoints=tuple(-b for b in pc.breakpoints))
            for pc in pieces
        )
        return linear, flipped

    a = exp_set_term_oracle(tn.nonneg_strong_integrand, params, 0.3)
    b = exp_set_term_oracle(mirrored, params, 0.3)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_nonneg_boundary_margin_at_paper_points():
    for alpha, beta in [(0.5, 0.0680), (0.9, 0.2577)]:
        margin, _ = tn.strong_nonneg_margin_lifted(alpha, beta)
        assert abs(margin) <= 5e-3, (alpha, beta, margin)


def test_nonneg_dominates_general_strong_spot():
    from l1lab.lift_core import threshold_bisect

    general = threshold_bisect(0.5, "strong", "lifted")
    nonneg = threshold_bisect(0.5, "strong_nonneg", "lifted")
    assert nonneg.beta >= general.beta - 1e-5
    assert nonneg.beta == pytest.approx(0.0680, abs=5e-4)
    assert general.beta == pytest.approx(0.04645, abs=5e-4)
