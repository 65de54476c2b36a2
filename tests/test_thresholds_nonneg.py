"""Nonnegative-unknown thresholds: weak characterization, strong bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1lab import numerics as nm
from l1lab import thresholds_nonneg as tn
from l1lab.lift_core import ExpPiece, LiftParams, exp_set_term_oracle
from l1lab.thresholds_general import weak_alpha_of_beta


# ---------------------------------------------------------------------------
# weak characterization (nonnegative)
# ---------------------------------------------------------------------------

def test_weak_nonneg_limits_and_residual():
    assert tn.weak_nonneg_alpha_of_beta(0.999) > 0.99
    beta = 0.3
    alpha = tn.weak_nonneg_alpha_of_beta(beta)
    assert beta < alpha < 1.0
    assert abs(tn.weak_nonneg_characterization(alpha, beta)) <= 1e-10


def test_weak_nonneg_monotone_spot():
    assert tn.weak_nonneg_alpha_of_beta(0.3) < tn.weak_nonneg_alpha_of_beta(0.5)


def test_weak_nonneg_needs_fewer_measurements():
    for beta in np.linspace(0.05, 0.9, 12):
        assert tn.weak_nonneg_alpha_of_beta(beta) <= weak_alpha_of_beta(beta) + 1e-12


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
    assert abs(tn.strong_nonneg_direct_closed(beta, nu) - numeric) <= 1e-6


def test_nonneg_direct_beta_to_zero_limit():
    v, nu = tn.strong_nonneg_direct_minimum(1e-5)
    assert v < 5e-3


def test_nonneg_direct_fixedpoint_agrees_with_minimum():
    # two published routes to the same direct bound; they coincide, so the
    # comparison is asserted rather than merely reported
    for beta in (0.02, 0.05, 0.1, 0.2, 0.3):
        fp = tn.strong_nonneg_direct_alpha_fixedpoint(beta)
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
    p = tn.NonnegStrongParams(c3=0.5, gamma=1.0, nu1=1.5, nu2s=0.2)
    entry = p.entry_point
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
    p = tn.NonnegStrongParams(c3=0.1, gamma=gamma, nu1=nu1, nu2s=nu2)
    want = max((h - nu1) ** 2 / (4 * gamma) - nu2,
               (max(h - nu1, 0.0)) ** 2 / (4 * gamma) + nu2)
    assert tn.nonneg_t_integrand(h, p) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_nonneg_degenerate_parameters():
    # nu1 = nu2 = 0: the exponent is h^2/(4*gamma) everywhere, so the moment
    # is E exp(p h^2) = 1/sqrt(1-2p)
    c3, gamma = 0.6, 0.8
    p = c3 / (4 * gamma)
    moment = tn.nonneg_exp_moment(c3, gamma, 0.0, 0.0)
    assert abs(moment - 1.0 / math.sqrt(1.0 - 2.0 * p)) <= 1e-8
    params = LiftParams(c3=c3, gamma=gamma, nu1=0.0, nu2=0.0)
    closed = tn.strong_nonneg_set_term_lifted(0.3, params)
    oracle = exp_set_term_oracle(tn.nonneg_strong_integrand, params, 0.3)
    assert abs(closed - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_nonneg_derived_coefficient_fields():
    p = tn.NonnegStrongParams(c3=0.8, gamma=1.1, nu1=1.2, nu2s=0.7)
    assert p.p_plus == pytest.approx(0.8 / 4.4)
    assert p.entry_point == pytest.approx(1.2 - math.sqrt(8 * 1.1 * 0.7))


def test_nonneg_moment_matches_oracle_spot():
    for nu1, nu2 in [(0.3, 1.2), (2.0, 0.4), (1.0, 1.0), (0.0, 0.5)]:
        params = LiftParams(c3=0.7, gamma=1.0, nu1=nu1, nu2=nu2)
        closed = tn.strong_nonneg_set_term_lifted(0.25, params)
        oracle = exp_set_term_oracle(tn.nonneg_strong_integrand, params, 0.25)
        assert abs(closed - oracle) <= 1e-6 * max(1.0, abs(oracle)), (nu1, nu2)


def test_mirror_invariance_of_expectation():
    # integrating the h -> -h mirrored exponent gives the same moment
    params = LiftParams(c3=0.7, gamma=1.0, nu1=1.1, nu2=0.6)

    def mirrored(params_, beta):
        linear, pieces = tn.nonneg_strong_integrand(params_, beta)
        flipped = tuple(
            ExpPiece(weight=pc.weight,
                     t=(lambda h, f=pc.t: f(-h)),
                     breakpoints=tuple(-b for b in pc.breakpoints),
                     half_width=pc.half_width)
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
