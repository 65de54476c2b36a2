"""Weak characterization, sectional and strong bounds for general unknowns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from l1lab import numerics as nm
from l1lab import thresholds_general as tg
from l1lab.errors import DomainError
from l1lab.lift_core import LiftParams, exp_set_term_oracle

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# weak characterization
# ---------------------------------------------------------------------------

def test_weak_limits():
    assert tg.weak_alpha_of_beta(1e-4) < 0.05
    assert tg.weak_alpha_of_beta(0.999) > 0.99


def test_weak_residual_and_uniqueness_on_grid():
    beta = 0.1
    alpha = tg.weak_alpha_of_beta(beta)
    assert beta < alpha < 1.0
    assert abs(tg.weak_characterization(alpha, beta)) <= 1e-10
    # sign scan on a 1e-4 grid: negative strictly below the root, positive
    # strictly above; exactly one sign change over (beta, 1)
    grid = np.arange(beta + 1e-4, 1.0, 1e-4)
    signs = np.sign([tg.weak_characterization(a, beta) for a in grid])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    assert grid[flips[0]] <= alpha <= grid[flips[0] + 1]


def test_weak_strictly_increasing():
    betas = np.linspace(0.02, 0.95, 50)
    alphas = [tg.weak_alpha_of_beta(b) for b in betas]
    assert np.all(np.diff(alphas) > 0)


# ---------------------------------------------------------------------------
# sectional bounds
# ---------------------------------------------------------------------------

def test_sectional_direct_trivials():
    # beta=0, large nu: the set contribution vanishes
    assert tg.sectional_set_term_direct(0.0, 6.0) < 0.01
    # nu=0 collapses both moments to plain second moments
    assert abs(tg.sectional_set_term_direct(0.1, 0.0) - 1.0) <= 1e-14


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.2, 1.5, -0.1, math.nan])
def test_sectional_margins_refuse_beta_outside_the_unit_interval(beta):
    # as the strong kinds do through their crossovers; the cold lifted
    # margin refuses before its walk starts
    for margin in (tg.sectional_margin_direct, tg.sectional_margin_lifted):
        with pytest.raises(DomainError, match="beta must lie in"):
            margin(0.5, beta)


def test_sectional_direct_boundary_at_table_value():
    # at the direct threshold for alpha=0.3 the minimized term hits sqrt(0.3)
    val, nu = tg.sectional_direct_minimum(0.0481)
    assert abs(val - math.sqrt(0.3)) <= 1e-3
    assert 0.0 < nu < 4.0


def test_sectional_moments_match_displayed_forms():
    # the textbook one-line expressions, evaluated literally
    for b, nu in [(0.1, 0.5), (0.3, 1.5), (0.45, 0.2), (0.05, 3.0)]:
        (plus, minus), _ = tg.sectional_exp_moments(b, nu)
        pref = math.exp(b * nu * nu / (1 - 2 * b)) / math.sqrt(1 - 2 * b)
        plus_disp = pref * (1 + nm.erf(SQRT2 * b * nu / math.sqrt(1 - 2 * b)))
        minus_disp = pref * nm.erfc(nu / math.sqrt(2 * (1 - 2 * b))) + nm.erf(nu / SQRT2)
        assert abs(plus - plus_disp) <= 1e-12 * plus_disp
        assert abs(minus - minus_disp) <= 1e-12 * minus_disp


def test_sectional_lifted_nu_zero_closed_form():
    params = LiftParams(c3=0.6, gamma=0.5, nu1=0.0)
    b = params.b
    (plus, minus), _ = tg.sectional_exp_moments(b, 0.0)
    assert abs(plus - 1.0 / math.sqrt(1.0 - 2.0 * b)) <= 1e-12
    assert abs(minus - 1.0 / math.sqrt(1.0 - 2.0 * b)) <= 1e-12
    closed = tg.SECTIONAL.set_term_at(0.2, params)
    oracle = exp_set_term_oracle(tg.sectional_integrand, params, 0.2)
    assert abs(closed - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_sectional_inner_minimization_vs_grid_scan():
    # 200 x 200 grid scan over (gamma, nu) is the oracle for the inner
    # minimization of the lifted sectional term at (beta, c3) = (0.1, 0.5)
    beta, c3 = 0.1, 0.5
    gammas = np.linspace(c3 / 2 + 1e-3, 3.0, 200).tolist()
    nus = np.linspace(0.0, 4.0, 200).tolist()
    best = np.inf
    for g in gammas:
        b = c3 / (4.0 * g)
        for nu in nus:
            (plus, minus), _ = tg.sectional_exp_moments(b, nu)
            val = g + beta / c3 * math.log(plus) + (1 - beta) / c3 * math.log(minus)
            best = min(best, val)

    def objective(v):
        g, nu = map(float, v)
        if g <= c3 / 2 or nu < 0:
            return np.inf
        (plus, minus), _ = tg.sectional_exp_moments(c3 / (4 * g), nu)
        return g + beta / c3 * math.log(plus) + (1 - beta) / c3 * math.log(minus)

    fx = minimize(objective, [1.0, 1.0], method="Nelder-Mead",
                  bounds=[(c3 / 2 + 1e-6, 5.0), (0.0, 6.0)],
                  options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": 4000}).fun
    assert fx <= best + 1e-4
    assert abs(fx - best) <= 1e-4


def test_sectional_lifted_reduces_to_direct_at_tiny_c3():
    # inner-optimized lifted set term at c3 = 1e-6 vs the direct minimum
    for beta in (0.02, 0.1, 0.2, 0.35, 0.45):
        direct, nu_d = tg.sectional_direct_minimum(beta)

        def objective(v):
            g, nu = v
            if g <= 0 or nu < 0:
                return np.inf
            (plus, minus), _ = tg.sectional_exp_moments(1e-6 / (4 * g), nu)
            return g + beta / 1e-6 * math.log(plus) + (1 - beta) / 1e-6 * math.log(minus)

        fx = minimize(objective, [max(direct, 0.05) / 2, nu_d], method="Nelder-Mead",
                      bounds=[(1e-4, 5.0), (0.0, 8.0)],
                      options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": 4000}).fun
        assert abs(fx - direct) <= 1e-3


def test_sectional_lifted_fixed_nu_limit_matches_direct():
    # at the same nu, optimizing only gamma at c3 = 1e-6 must land within
    # 1e-4 of the direct value sqrt(radicand)
    from scipy.optimize import minimize_scalar

    c3 = 1e-6
    for beta, nu in [(0.1, 1.0), (0.3, 0.6), (0.05, 1.8)]:
        direct = tg.sectional_set_term_direct(beta, nu)

        def term(g):
            (plus, minus), _ = tg.sectional_exp_moments(c3 / (4 * g), nu)
            return g + beta / c3 * math.log(plus) + (1 - beta) / c3 * math.log(minus)

        res = minimize_scalar(term, bounds=(1e-3, 4.0), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(res.fun - direct) <= 1e-4


def test_oracle_small_c3_limit_matches_direct():
    # the quadrature oracle itself, at c3 = 3e-5 and optimally balanced
    # gamma, reproduces the direct expression at the direct-optimal nu
    beta = 0.1
    direct, nu = tg.sectional_direct_minimum(beta)
    gamma = direct / 2.0
    params = LiftParams(c3=3e-5, gamma=gamma, nu1=nu)
    term = exp_set_term_oracle(tg.sectional_integrand, params, beta)
    assert abs(term - direct) <= 1e-4


def test_sectional_boundary_margin_at_paper_point():
    margin, params = tg.sectional_margin_lifted(0.5, 0.1045)
    assert abs(margin) <= 5e-3


# ---------------------------------------------------------------------------
# strong exponent and its closed-form moment
# ---------------------------------------------------------------------------

def reference_strong_t(h, nu1, nu2, gamma):
    """Independent re-implementation straight from the two-branch max."""
    ah = abs(h)
    return max((ah + nu1) ** 2 / (4 * gamma) - nu2,
               (max(ah - nu1, 0.0)) ** 2 / (4 * gamma) + nu2)


def strong_params(nu1, nu2, gamma):
    """LiftParams for the strong exponent, which does not depend on c3."""
    return LiftParams(c3=0.1, gamma=gamma, nu1=nu1, nu2=nu2)


def test_strong_t_integrand_values():
    s = strong_params(nu1=0.0, nu2=0.3, gamma=1.0)
    assert tg.strong_t_integrand(0.0, s) == pytest.approx(0.3, abs=1e-15)
    s = strong_params(nu1=1.0, nu2=0.1, gamma=0.5)
    # hand evaluation at h=2: (4+1)/2 + |2*1/1 - 0.1| = 2.5 + 1.9
    assert tg.strong_t_integrand(2.0, s) == pytest.approx(4.4, abs=1e-12)
    assert tg.strong_t_integrand(2.0, s) == pytest.approx(
        reference_strong_t(2.0, 1.0, 0.1, 0.5), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(-6, 6),
    nu1=st.floats(0, 3),
    nu2=st.floats(0, 3),
    gamma=st.floats(0.1, 3),
)
def test_strong_t_integrand_matches_reference(h, nu1, nu2, gamma):
    s = strong_params(nu1, nu2, gamma)
    assert tg.strong_t_integrand(h, s) == pytest.approx(
        reference_strong_t(h, nu1, nu2, gamma), rel=1e-13, abs=1e-13)


def test_strong_t_branch_continuity():
    for nu1, nu2, gamma in [(1.2, 0.4, 0.7), (0.5, 1.0, 1.3), (2.0, 0.05, 0.4)]:
        s = strong_params(nu1, nu2, gamma)
        below = tg.strong_t_integrand(nu1 - 1e-11, s)
        above = tg.strong_t_integrand(nu1 + 1e-11, s)
        assert abs(above - below) <= 1e-9


@pytest.mark.parametrize("nu1, nu2", [(-0.1, 0.3), (0.5, -0.1)])
def test_strong_t_integrand_rejects_negative_multipliers(nu1, nu2):
    with pytest.raises(DomainError):
        tg.strong_t_integrand(0.5, strong_params(nu1, nu2, 1.0))


def test_strong_moment_continuity_at_regime_boundaries():
    c3, gamma, nu2 = 0.8, 1.1, 0.9
    b, mu = c3 / (4 * gamma), c3 * nu2
    for edge in (math.sqrt(2 * gamma * nu2), math.sqrt(8 * gamma * nu2)):
        lo = tg.strong_exp_moment(b, edge * (1 - 1e-9), mu)[0]
        hi = tg.strong_exp_moment(b, edge * (1 + 1e-9), mu)[0]
        assert abs(lo - hi) <= 1e-8 * max(lo, hi)


def test_strong_moment_nu2_zero_degenerate():
    # regimes 2 and 3 coincide; closed form equals the oracle tightly
    params = LiftParams(c3=0.7, gamma=0.9, nu1=1.3, nu2=0.0)
    closed = tg.STRONG.set_term_at(0.2, params)
    oracle = exp_set_term_oracle(tg.strong_integrand, params, 0.2)
    assert abs(closed - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_strong_moment_matches_oracle_in_each_regime():
    for nu1, nu2 in [(0.1, 1.0), (2.0, 1.0), (3.0, 0.5), (0.0, 0.7), (1.5, 0.0)]:
        params = LiftParams(c3=0.6, gamma=1.0, nu1=nu1, nu2=nu2)
        closed = tg.STRONG.set_term_at(0.3, params)
        oracle = exp_set_term_oracle(tg.strong_integrand, params, 0.3)
        assert abs(closed - oracle) <= 1e-6 * max(1.0, abs(oracle)), (nu1, nu2)


# ---------------------------------------------------------------------------
# direct strong bound
# ---------------------------------------------------------------------------

def strong_direct_value_closed(beta: float, nu: float) -> float:
    """Single-line form of tg.strong_direct_value:
    (1+nu^2) erfc(nu/sqrt(2)) + (4 nu / sqrt(2 pi)) (2 e^{-erfinv(1-beta)^2} - e^{-nu^2/2}/2)."""
    e = float(nm.erfinv(1.0 - beta))
    return ((1.0 + nu * nu) * float(nm.erfc(nu / nm.SQRT2))
            + 4.0 * nu / nm.SQRT2PI * (2.0 * math.exp(-e * e)
                                       - 0.5 * math.exp(-0.5 * nu * nu)))


def test_strong_direct_integral_vs_quadrature():
    beta, nu = 0.1, 1.0
    c = tg.strong_crossover(beta)

    def g(h):
        ah = np.abs(h)
        outer = np.where(ah >= c, (ah + nu) ** 2, 0.0)
        inner = np.where((ah >= nu) & (ah < c), (ah - nu) ** 2, 0.0)
        return outer + inner

    numeric = nm.gauss_expectation(g, nm.QuadratureSpec(half_width=12.0),
                                   breakpoints=(-c, -nu, nu, c))
    assert abs(tg.strong_direct_value(beta, nu) - numeric) <= 1e-6
    assert abs(strong_direct_value_closed(beta, nu) - numeric) <= 1e-6


def test_strong_direct_limit_beta_to_zero():
    w, nu = tg.strong_direct_minimum(1e-5)
    assert w < 5e-3  # so the direct strong condition W < alpha holds down to alpha = 5e-3


def test_strong_direct_below_donoho_at_half():
    # the direct strong bound is known to dip under the classical polytope
    # value in this range; 0.04471 is an upper sanity anchor, not a target
    from l1lab.lift_core import threshold_bisect

    r = threshold_bisect(0.5, "strong", "direct")
    assert 0.03 < r.beta < 0.04471
    # and the earlier-work fixed-point route gives the same boundary
    from scipy.optimize import brentq

    def fixpoint_alpha(beta):
        def fix(theta):
            e_t = float(nm.erfinv(1.0 - theta))
            e_b = float(nm.erfinv(1.0 - beta))
            return (math.sqrt(2 / math.pi)
                    * (math.exp(-e_t ** 2) - 2 * math.exp(-e_b ** 2)) / theta
                    - SQRT2 * e_t)

        theta = brentq(fix, beta + 1e-12, 1 - 1e-12)
        e_t = float(nm.erfinv(1.0 - theta))
        e_b = float(nm.erfinv(1.0 - beta))
        lead = (1.0 + 2.0 / math.sqrt(2 * math.pi) * SQRT2 * e_t * math.exp(-e_t ** 2)
                - (1.0 - theta))
        gap = (math.sqrt(2 / math.pi) * math.exp(-e_t ** 2)
               - 2 * math.sqrt(2 / math.pi) * math.exp(-e_b ** 2))
        return lead - gap * gap / theta

    w, _ = tg.strong_direct_minimum(r.beta)
    assert abs(fixpoint_alpha(r.beta) - w) <= 1e-9


def test_strong_boundary_margin_at_paper_points():
    for alpha, beta in [(0.5, 0.04645), (0.9, 0.1443)]:
        margin, _ = tg.strong_margin_lifted(alpha, beta)
        assert abs(margin) <= 5e-3, (alpha, beta, margin)
