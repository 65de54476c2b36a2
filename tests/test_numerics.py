"""Special functions, root finding, minimization, quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1lab import numerics as nm
from l1lab.errors import (
    DomainError,
    NonConvergentError,
    NoSignChangeError,
)

# ---------------------------------------------------------------------------
# independent oracles (kept deliberately separate from the library routes)
# ---------------------------------------------------------------------------

def erf_maclaurin(x, terms=160):
    """erf by its Maclaurin series; accurate to ~1e-15 for |x| <= 3."""
    acc = 0.0
    term = x
    for n in range(terms):
        acc += term / (2 * n + 1)
        term *= -x * x / (n + 1)
    return 2.0 / math.sqrt(math.pi) * acc


def erfinv_newton(p):
    """erfinv via a rational-style initial guess plus Newton on math.erf."""
    a = 0.147  # Winitzki's constant; guess good to ~2e-3
    ln1mp2 = math.log1p(-p * p)
    u = 2.0 / (math.pi * a) + ln1mp2 / 2.0
    x = math.copysign(math.sqrt(math.sqrt(u * u - ln1mp2 / a) - u), p)
    for _ in range(4):
        err = math.erf(x) - p
        x -= err * math.sqrt(math.pi) / 2.0 * math.exp(x * x)
    return x


# ---------------------------------------------------------------------------
# erf / erfinv
# ---------------------------------------------------------------------------

def test_erf_at_zero_and_saturation():
    assert nm.erf(0.0) == 0.0
    assert abs(nm.erf(10.0) - 1.0) <= 1e-15


def test_erf_against_series_oracle():
    for x in (0.5, 0.1, 1.0, 2.3, -0.7):
        assert abs(nm.erf(x) - erf_maclaurin(x)) <= 1e-13


def test_erf_odd_symmetry_exact():
    for x in np.linspace(0.0, 6.0, 101):
        assert nm.erf(-x) == -nm.erf(x)


def test_erf_erfc_complementarity():
    xs = np.linspace(-8.0, 8.0, 401)
    assert np.max(np.abs(nm.erf(xs) + nm.erfc(xs) - 1.0)) <= 1e-14


def test_erfinv_identity_and_roundtrip():
    assert nm.erfinv(0.0) == 0.0
    assert abs(nm.erfinv(nm.erf(1.5)) - 1.5) <= 1e-12
    # |x| <= 3: the inverse is well conditioned and 1e-12 is achievable
    for x in np.linspace(-3, 3, 41):
        assert abs(nm.erfinv(nm.erf(x)) - x) <= 1e-12
    # beyond that, erf(x) rounds to within a few ulp of 1 and the inverse's
    # condition number ~ exp(x^2) makes the representable-best error grow;
    # require optimality up to that floor rather than an impossible 1e-12
    for x in np.linspace(3.0, 5.0, 21):
        p = nm.erf(x)
        floor = math.sqrt(math.pi) / 2.0 * math.exp(x * x) * np.spacing(p)
        assert abs(nm.erfinv(p) - x) <= 1e-12 + 4.0 * floor


def test_erfinv_near_one_against_newton_oracle():
    p = 0.999999
    y = nm.erfinv(p)
    assert math.isfinite(y)
    assert abs(nm.erf(y) - p) <= 1e-10
    assert abs(y - erfinv_newton(p)) <= 1e-9


def test_erfinv_domain_error():
    for p in (1.0, -1.0, 1.5, -2.0):
        with pytest.raises(DomainError):
            nm.erfinv(p)


# ---------------------------------------------------------------------------
# find_root
# ---------------------------------------------------------------------------

def test_find_root_linear():
    assert abs(nm.find_root(lambda x: x - 2.0, nm.Bracket(0.0, 5.0)) - 2.0) <= 1e-10


def test_find_root_consistent_with_erfinv():
    root = nm.find_root(lambda x: nm.erf(x) - 0.5, nm.Bracket(0.0, 2.0))
    assert abs(root - nm.erfinv(0.5)) <= 1e-9


def test_find_root_no_sign_change():
    with pytest.raises(NoSignChangeError):
        nm.find_root(lambda x: x * x + 1.0, nm.Bracket(-1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(root=st.floats(-5, 5), width=st.floats(0.1, 10), tol=st.floats(1e-12, 1e-6))
def test_find_root_stays_inside_bracket(root, width, tol):
    lo, hi = root - width, root + width
    got = nm.find_root(lambda x: (x - root) ** 3 + 0.1 * (x - root), nm.Bracket(lo, hi), tol=tol)
    assert lo <= got <= hi
    assert abs(got - root) <= max(10 * tol, 1e-9)


# ---------------------------------------------------------------------------
# nelder_mead (its step-for-step scipy replay is in test_nelder_mead.py)
# ---------------------------------------------------------------------------

def test_minimize_quadratic_bowl():
    res = nm.nelder_mead(lambda v: (v[0] - 1) ** 2 + (v[1] - 2) ** 2, [0.0, 0.0],
                         xatol=1e-8, fatol=1e-10)
    assert res.success
    assert abs(res.x[0] - 1.0) <= 1e-6 and abs(res.x[1] - 2.0) <= 1e-6


def test_minimize_respects_active_bound():
    res = nm.nelder_mead(lambda v: (v[0] - 1.0) ** 2, [4.0], bounds=[(3.0, 10.0)],
                         xatol=1e-8, fatol=1e-10)
    assert abs(res.x[0] - 3.0) <= 1e-6
    assert abs(res.fun - 4.0) <= 1e-5


def test_minimize_never_worse_than_start():
    def rosen(v):
        return (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2

    for x0 in ([0.0, 0.0], [-1.2, 1.0], [3.0, -3.0]):
        res = nm.nelder_mead(rosen, x0, xatol=1e-8, fatol=1e-10, maxiter=300)
        assert res.fun <= rosen(x0) + 1e-12


# ---------------------------------------------------------------------------
# gauss_expectation
# ---------------------------------------------------------------------------

def test_gauss_expectation_normalization():
    val = nm.gauss_expectation(lambda h: np.ones_like(h))
    assert abs(val - 1.0) <= 1e-12


def test_gauss_expectation_unit_variance():
    val = nm.gauss_expectation(lambda h: h * h)
    assert abs(val - 1.0) <= 1e-10


def test_gauss_expectation_exponential_moment():
    # E exp(t h^2) = 1/sqrt(1-2t) for t < 1/2
    t = 0.3
    val = nm.gauss_expectation(lambda h: np.exp(t * h * h),
                               nm.QuadratureSpec(half_width=14.0))
    assert abs(val - 1.0 / math.sqrt(1.0 - 2.0 * t)) <= 1e-8


def test_gauss_expectation_polynomial_moments():
    # E h^k: 0 for odd k, (k-1)!! for even k
    exact = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}
    for k, want in exact.items():
        val = nm.gauss_expectation(lambda h, k=k: h ** k)
        assert abs(val - want) <= 1e-9, (k, val)


def test_gauss_expectation_breakpoint_alignment():
    # kinked integrand: panels aligned to the kink converge cleanly
    val = nm.gauss_expectation(lambda h: np.maximum(np.abs(h) - 0.7, 0.0),
                               breakpoints=(-0.7, 0.7))
    q = 0.7
    want = 2 * (math.exp(-q * q / 2) / math.sqrt(2 * math.pi)
                - q * 0.5 * nm.erfc(q / math.sqrt(2)))
    assert abs(val - want) <= 1e-10


def test_gauss_expectation_nonconvergent():
    # an oscillation far below the panel resolution cannot stabilize
    spec = nm.QuadratureSpec(half_width=10.0, panels=64, rel_tol=1e-12,
                             max_panels=256)
    with pytest.raises(NonConvergentError):
        nm.gauss_expectation(lambda h: np.cos(500.0 * h) * h * h, spec)


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        nm.QuadratureSpec(half_width=4.0)
    with pytest.raises(DomainError):
        nm.QuadratureSpec(panels=16)
    with pytest.raises(DomainError):
        nm.QuadratureSpec(rel_tol=0.0)


# ---------------------------------------------------------------------------
# gaussian_quadratic_integral
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    p=st.floats(-0.5, 0.45),
    s=st.floats(-2.0, 2.0),
    c=st.floats(-1.0, 1.0),
    lo=st.floats(-4.0, 1.0),
    width=st.floats(0.1, 5.0),
)
def test_gaussian_quadratic_integral_matches_quadrature(p, s, c, lo, width):
    hi = lo + width
    closed = nm.gaussian_quadratic_integral(p, s, c, lo, hi)

    def g(h):
        inside = (h >= lo) & (h <= hi)
        return np.where(inside, np.exp(p * h * h + s * h + c), 0.0)

    sig = 1.0 / math.sqrt(1.0 - 2.0 * max(p, 0.0))
    spec = nm.QuadratureSpec(half_width=max(10.0, 12.0 * sig + abs(s) + 5.0),
                             rel_tol=1e-11)
    numeric = nm.gauss_expectation(g, spec, breakpoints=(lo, hi))
    assert abs(closed - numeric) <= 1e-9 * max(1.0, abs(closed))


def test_gaussian_quadratic_integral_infinite_limits():
    # E exp(p h^2) and half-line splits
    p = 0.3
    full = nm.gaussian_quadratic_integral(p, 0.0, 0.0, -np.inf, np.inf)
    assert abs(full - 1.0 / math.sqrt(1.0 - 2.0 * p)) <= 1e-13
    left = nm.gaussian_quadratic_integral(p, 0.4, 0.1, -np.inf, 0.8)
    right = nm.gaussian_quadratic_integral(p, 0.4, 0.1, 0.8, np.inf)
    both = nm.gaussian_quadratic_integral(p, 0.4, 0.1, -np.inf, np.inf)
    assert abs((left + right) - both) <= 1e-13 * abs(both)


def test_gaussian_quadratic_integral_domain():
    with pytest.raises(DomainError):
        nm.gaussian_quadratic_integral(0.5, 0.0, 0.0, 0.0, 1.0)
    assert nm.gaussian_quadratic_integral(0.1, 0.0, 0.0, 2.0, 1.0) == 0.0
