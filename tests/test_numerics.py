"""Special functions, root finding, minimization, quadrature."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar

from l1lab import lift_core as lc
from l1lab import numerics as nm
from l1lab import thresholds_general as tg
from l1lab import thresholds_nonneg as tn
from l1lab.errors import DomainError, NonConvergentError

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


def _erfinv_sweep():
    inner = np.linspace(-1.0, 1.0, 4001)[1:-1]
    edges = [np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 1e-300, -1e-300, 5e-324,
             0.0, -0.0, 1e-8, 0.5 - 1e-17, 0.9999999999]
    return np.concatenate([inner, edges])


def test_erfinv_scalar_path_matches_array_path():
    sweep = _erfinv_sweep()
    by_array = scipy.special.erfinv(sweep)
    for p, want in zip(sweep.tolist(), by_array.tolist()):
        for scalar in (p, np.float64(p)):
            got = nm.erfinv(scalar)
            assert type(got) is float
            assert got.hex() == want.hex(), p


@pytest.mark.parametrize("p", [1.0, -1.0, 1.0 + 2e-16, -1.5, math.inf, -math.inf])
def test_erfinv_domain_error_on_every_path(p):
    for value in (p, np.float64(p), np.array(p)):
        with pytest.raises(DomainError):
            nm.erfinv(value)


def test_erfinv_nan_passes_through():
    for value in (math.nan, np.float64(math.nan), np.array(math.nan)):
        got = nm.erfinv(value)
        assert type(got) is float and math.isnan(got)


# ---------------------------------------------------------------------------
# newton_root: Newton from below on an increasing concave function
# ---------------------------------------------------------------------------

def test_newton_root_returns_lo_where_f_is_not_negative():
    seen = []

    def f(x):
        seen.append(x)
        return x - 1.0, 1.0

    assert nm.newton_root(f, 1.0, 5.0, 1e-9) == 1.0
    assert nm.newton_root(f, 2.0, 5.0, 1e-9) == 2.0
    assert seen == [1.0, 2.0]


def test_newton_root_on_a_line_is_one_step():
    # the tangent of a line is the line: one step to the root, whose step
    # of 0 from there is never taken
    seen = []

    def f(x):
        seen.append(x)
        return 2.0 * x - 1.0, 2.0

    assert nm.newton_root(f, 0.0, 5.0, 1e-9) == 0.5
    assert seen == [0.0, 0.5]


def test_newton_root_clips_at_hi():
    # a tangent zero past hi, or a slope of 0 below the root, ends on hi
    # without evaluating it
    seen = []

    def f(x):
        seen.append(x)
        return math.log(x / 3.0), 1.0 / x

    assert nm.newton_root(f, 1.0, 2.5, 1e-9) == 2.5
    assert nm.newton_root(lambda x: (-1.0, 0.0), 1.0, 2.5, 1e-9) == 2.5
    assert max(seen) < 2.5


@settings(max_examples=60, deadline=None)
@given(root=st.floats(0.1, 5.0), rate=st.floats(0.1, 20.0), tol=st.floats(1e-12, 1e-4))
def test_newton_root_never_passes_the_root(root, rate, tol):
    # 1 - exp(-rate (x - root)) is increasing and concave: every iterate and
    # the returned tangent zero lie at or below its root, up to rounding,
    # within tol of it
    seen = []

    def f(x):
        e = math.exp(-rate * (x - root))
        seen.append((x, 1.0 - e))
        return 1.0 - e, rate * e

    got = nm.newton_root(f, 0.0, 10.0, tol)
    assert all(value <= 1e-15 for _, value in seen)
    assert seen == sorted(seen)
    assert root - tol <= got <= root + 1e-14


# ---------------------------------------------------------------------------
# projected_bfgs: a projected quasi-Newton search on analytic gradients
# ---------------------------------------------------------------------------

def rosen_fg(v):
    x, y = v
    return ((1 - x) ** 2 + 100 * (y - x * x) ** 2,
            [-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])


def logged_fg(fg):
    """fg that appends each point it is given to its list `seen`."""
    def logged(v):
        logged.seen.append(list(v))
        return fg(v)
    logged.seen = []
    return logged


def quadratic_4d(v):
    """A strictly convex quadratic on 4 coordinates and its gradient; its
    minimizer (0.3, 0.1, 0.5, 0.4) lies below QUADRATIC_4D_BOX in x[1]."""
    diag, centre = (2.0, 1.0, 1.0, 0.5), (0.3, 0.1, 0.5, 0.4)
    d = [vi - ci for vi, ci in zip(v, centre)]
    grad = [2 * h * di for h, di in zip(diag, d)]
    for i in range(3):
        grad[i] += 0.3 * d[i + 1]
        grad[i + 1] += 0.3 * d[i]
    return (sum(h * di * di for h, di in zip(diag, d))
            + 0.3 * sum(a * b for a, b in zip(d, d[1:])), grad)


QUADRATIC_4D_BOX = [(-1.0, 1.0), (0.25, 1.0), (0.0, 1.0), (0.0, 3.0)]


def test_minimize_quadratic_bowl():
    x, (fun, _) = nm.projected_bfgs(
        lambda v: ((v[0] - 1) ** 2 + (v[1] - 2) ** 2, [2 * (v[0] - 1), 2 * (v[1] - 2)]),
        [0.0, 0.0], [(-5.0, 5.0), (-5.0, 5.0)], fatol=1e-16, max_iter=200)
    assert abs(x[0] - 1.0) <= 1e-6 and abs(x[1] - 2.0) <= 1e-6
    assert fun <= 1e-12


def test_minimize_respects_active_bound():
    x, (fun, _) = nm.projected_bfgs(lambda v: ((v[0] - 1.0) ** 2, [2 * (v[0] - 1.0)]),
                                    [4.0], [(3.0, 10.0)], fatol=1e-16, max_iter=200)
    assert x == [3.0] and fun == 4.0


def test_minimize_never_worse_than_start():
    for x0 in ([0.0, 0.0], [-1.2, 1.0], [3.0, -3.0]):
        seen = []

        def logged(v):
            seen.append(list(v))
            return rosen_fg(v)

        x, (fun, _) = nm.projected_bfgs(logged, x0, [(-4.0, 4.0), (-4.0, 4.0)],
                                        fatol=1e-20, max_iter=300)
        assert seen[0] == [min(max(v, -4.0), 4.0) for v in x0]
        assert all(-4.0 <= vi <= 4.0 for v in seen for vi in v)
        assert fun == rosen_fg(x)[0] <= rosen_fg(x0)[0]
        assert abs(x[0] - 1.0) <= 1e-5 and abs(x[1] - 1.0) <= 1e-5


def test_minimize_returns_an_infinite_start_unchanged():
    logged = logged_fg(lambda v: (math.inf, None))
    x, (fun, grad) = nm.projected_bfgs(logged, [2.0, 7.0], [(0.0, 1.0), (0.0, 5.0)],
                                       fatol=1e-14, max_iter=10)
    assert x == [1.0, 5.0] and fun == math.inf and grad is None
    assert logged.seen == [[1.0, 5.0]]


def test_minimize_leaves_a_face_a_bounded_simplex_collapses_onto():
    # on this convex quadratic a bounded Nelder-Mead (scipy's, say) stops
    # at f = 0.1008 with x[3] pinned at its lower bound, where L-BFGS-B
    # finds 0.0217
    fg, bounds = quadratic_4d, QUADRATIC_4D_BOX
    x, (fun, _) = nm.projected_bfgs(fg, [0.9, 0.9, 0.1, 2.9], bounds, fatol=1e-16,
                                    max_iter=200)
    ref = minimize(lambda v: fg(list(v))[0], [0.9, 0.9, 0.1, 2.9], jac=lambda v: fg(list(v))[1],
                   method="L-BFGS-B", bounds=bounds, options={"ftol": 1e-15, "gtol": 1e-12})
    assert ref.fun == pytest.approx(0.0217, abs=1e-4)
    assert fun <= ref.fun + 1e-12
    assert x[1] == 0.25 and 0.0 < x[3]


@pytest.mark.parametrize("fg, x0, box, fatol, max_iter, want", [
    (rosen_fg, [-1.2, 1.0], [(-4.0, 4.0), (-2.0, 0.5)], 1e-20, 300,
     (["0x1.6ac84fb00b05dp-1", "0x1.0000000000000p-1"], "0x1.5da2fbb2fca5bp-4", 613)),
    (quadratic_4d, [0.9, 0.9, 0.1, 2.9], QUADRATIC_4D_BOX, 1e-16, 200,
     (["0x1.27ae148268af4p-2", "0x1.0000000000000p-2", "0x1.e7dfd536d9bdep-2",
       "0x1.a0d673420cc4dp-2"], "0x1.63cebc8a566b5p-6", 12)),
], ids=["rosenbrock-on-a-face", "quadratic-4d"])
def test_minimize_without_an_estimate_repeats_the_recorded_run(fg, x0, box, fatol,
                                                               max_iter, want):
    # the end point, its value and the number of evaluations of the
    # forward-difference start, recorded as hex floats
    logged = logged_fg(fg)
    x, (fun, _) = nm.projected_bfgs(logged, x0, box, fatol=fatol, max_iter=max_iter)
    assert ([v.hex() for v in x], fun.hex(), len(logged.seen)) == want


def run_contract(kind, alpha, q0):
    """One projected BFGS run on the lifted ratio objective of a kind from
    q0 = [b, nu1(, mu)] (which may lie past the box), as lifted_threshold
    runs it, checking the contract: every q it evaluates lies in the box,
    and the value it ends with is that of its end point and never above
    the value at the clipped start.  Returns (end value, start value,
    number of evaluations)."""
    spec = lc.kind_table()[kind]
    box = lc._Q_BOX[:1 + spec.n_extra]
    profile = logged_fg(lc._ratio_profile(spec, alpha, 1e-9))
    x, (fun, _, c3) = nm.projected_bfgs(profile, q0, box, fatol=lc._FATOL,
                                        max_iter=lc._MAX_ITER)
    for q in profile.seen:
        assert all(lo <= v <= hi for v, (lo, hi) in zip(q, box)), q
    start = profile.seen[0]
    assert start == [min(max(v, lo), hi) for v, (lo, hi) in zip(q0, box)]
    assert (fun, c3) == lc._ratio_profile(spec, alpha, 1e-9)(x)[::2]
    start_value = lc._ratio_profile(spec, alpha, 1e-9)(start)[0]
    assert fun <= start_value
    return fun, start_value, len(profile.seen)


# these contract tests keep the names they had when a simplex ran the searches
@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_nelder_mead_never_above_start_on_lifted_objectives(kind):
    rng = np.random.default_rng({"sectional": 3, "strong": 4, "strong_nonneg": 5}[kind])
    for _ in range(4):
        alpha = rng.uniform(0.05, 0.999)
        # starts inside the box and, for the clip, past its edges
        q = [rng.uniform(0.05, 0.6), rng.uniform(-1.0, 3.0)]
        if kind != "sectional":
            q.append(rng.uniform(-1.0, 3.0) * math.exp(rng.uniform(-3.0, 3.0)))
        run_contract(kind, alpha, q)


def test_nelder_mead_never_above_start_on_the_c3_and_b_corner():
    # starts at or near B_MAX (on B_MAX the best c3 is C3_MAX), and one at
    # mu = 600, near the overflow of exp(mu)
    cases = [
        ("sectional", 0.999, [0.49, 0.03]),
        ("strong", 0.999, [0.49, 0.03, 16.0]),
        ("strong_nonneg", 0.999, [lc.B_MAX, 0.002, 1.04]),
        ("strong_nonneg", 0.9, [0.3, 1.0, 600.0]),
    ]
    for kind, alpha, q in cases:
        fun, start_value, _ = run_contract(kind, alpha, q)
        assert fun < start_value


def test_nelder_mead_never_above_start_on_the_inf_plateau_past_b_half():
    # starts at b past 1/2 (clipped to B_MAX) with a moment that overflows
    # there: the run returns the start after one evaluation, and from b
    # halved, as lifted_threshold halves it, the value is finite
    cases = [("sectional", [0.6, 12.0]), ("strong", [0.7, 12.0, 2.0]),
             ("strong_nonneg", [0.7, 12.0, 2.0])]
    for kind, q in cases:
        fun, start_value, evaluations = run_contract(kind, 0.7, q)
        assert fun == start_value == math.inf and evaluations == 1
        fun, _, _ = run_contract(kind, 0.7, [0.5 * lc.B_MAX] + q[1:])
        assert math.isfinite(fun)


# ---------------------------------------------------------------------------
# newton_minimum: the direct 1-D minima by Newton on a closed-form slope
# ---------------------------------------------------------------------------

def direct_objectives(beta):
    """name -> (public minimum, value on the public scale, profile, upper
    end, factor k with f' = k * g for the profile's (f, g, g')) of the
    three direct minima; the sectional profile's f is the radicand."""
    c, strong = tg._strong_direct_profile(beta)
    return {
        "sectional": (tg.sectional_direct_minimum,
                      lambda v: tg.sectional_set_term_direct(beta, v),
                      tg._sectional_direct_profile(beta), 12.0, 2.0),
        "strong": (tg.strong_direct_minimum, lambda v: tg.strong_direct_value(beta, v),
                   strong, c, 4.0),
        "strong_nonneg": (tn.strong_nonneg_direct_minimum,
                          lambda v: tn.strong_nonneg_direct_value(beta, v),
                          tn._nonneg_direct_profile(beta), 10.0, 2.0),
    }


DIRECT_BETAS = [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.239, 0.24, 0.3, 0.4, 0.45, 0.4999]


def exact_direct_value(kind, beta, nu):
    """The direct objective at (beta, nu) in 40-digit arithmetic, with the
    crossover level the float profile uses; an independent route that is
    free of the float formulas' rounding noise."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    b, v = mp.mpf(beta), mp.mpf(nu)

    def dens(x):
        return mp.npdf(x)

    def upper(x):
        return mp.ncdf(-x)

    if kind == "sectional":
        on = v * v + 1 + 2 * mp.sqrt(2 / mp.pi) * v
        off = 2 * upper(v) * (1 + v * v) - 2 * v * dens(v)
        return mp.sqrt(b * on + (1 - b) * off)
    if kind == "strong":
        c = mp.mpf(tg.strong_crossover(beta))
        v = min(v, c)
        return 2 * ((1 + v * v) * upper(v) + 4 * v * dens(c) - v * dens(v))
    c = mp.mpf(tn.nonneg_crossover(beta))
    return ((1 + v * v) * mp.ncdf(c) + (2 * v - c) * dens(c)
            + (1 + v * v) * upper(v) - v * dens(v))


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_newton_minimum_not_above_scipy_bounded(kind):
    # the float values carry rounding noise up to ~2e-13 relative (nonneg
    # strong at beta = 1e-4, whose upper tail is 1 - Phi(nu)), in which a
    # bounded Brent can find a dip; compared exactly, Newton's point is at
    # least as good
    for beta in DIRECT_BETAS:
        minimum, value, _, hi, _ = direct_objectives(beta)[kind]
        got, nu = minimum(beta)
        assert got == value(nu) and 0.0 <= nu <= hi
        ref = minimize_scalar(value, bounds=(0.0, hi), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(nu - ref.x) <= 1e-6, (beta, nu, ref.x)
        assert got <= ref.fun * (1.0 + 1e-12), (beta, got, ref.fun)
        ours, theirs = (exact_direct_value(kind, beta, x) for x in (nu, float(ref.x)))
        assert ours <= theirs * (1 + 1e-14), (beta, ours, theirs)
        assert abs(ours - got) <= 1e-12 * got


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_direct_slopes_match_central_differences(kind):
    # g is the objective's nu-derivative over k (sectional: of the radicand)
    h = 1e-6
    for beta in DIRECT_BETAS:
        _, _, profile, hi, k = direct_objectives(beta)[kind]
        for nu in np.linspace(h, min(hi, 6.0) - h, 25).tolist():
            value_slope = (profile(nu + h)[0] - profile(nu - h)[0]) / (2.0 * h)
            g_slope = (profile(nu + h)[1] - profile(nu - h)[1]) / (2.0 * h)
            _, g, dg = profile(nu)
            assert abs(k * g - value_slope) <= 1e-7 * max(1.0, abs(value_slope)), (beta, nu)
            assert abs(dg - g_slope) <= 1e-7, (beta, nu)
            assert dg > 0.0


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_newton_iterates_rise_from_zero(kind):
    for beta in DIRECT_BETAS:
        _, _, profile, hi, _ = direct_objectives(beta)[kind]
        seen = []

        def logged(nu):
            seen.append(nu)
            return profile(nu)

        value, nu = nm.newton_minimum(logged, hi)
        assert seen[0] == 0.0 and seen[-1] == nu and value == profile(nu)[0]
        assert all(a < b for a, b in zip(seen, seen[1:])), (beta, seen)
        assert len(seen) <= 20


def test_strong_minimum_at_zero_where_the_slope_starts_nonnegative():
    # g(0) = 2 phi(c_nu) - phi(0) >= 0 once c_nu <= sqrt(2 log 2), i.e. beta >= ~0.2386
    for beta in (0.24, 0.3, 0.4, 0.5 - 1e-9):
        _, profile = tg._strong_direct_profile(beta)
        assert profile(0.0)[1] >= 0.0
        assert tg.strong_direct_minimum(beta) == (profile(0.0)[0], 0.0)
    _, profile = tg._strong_direct_profile(0.2)
    assert profile(0.0)[1] < 0.0 and tg.strong_direct_minimum(0.2)[1] > 0.0


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_newton_minimum_clips_at_the_upper_end(kind):
    # on [0, nu*/2] the slope is still negative at the end: the minimum is there
    for beta in (1e-3, 0.05, 0.2):
        minimum, value, profile, _, _ = direct_objectives(beta)[kind]
        hi = 0.5 * minimum(beta)[1]
        assert profile(hi)[1] < 0.0
        got = nm.newton_minimum(profile, hi)
        assert got == (profile(hi)[0], hi)
        ref = minimize_scalar(value, bounds=(0.0, hi), method="bounded",
                              options={"xatol": 1e-12})
        assert value(hi) <= ref.fun * (1.0 + 1e-14)


def test_newton_minimum_on_a_quadratic():
    # f = (x - 3)^2 / 2 with g = f': one Newton step from 0 lands on the root,
    # and a root past the end or at 0 gives the end or 0
    def profile(x):
        return 0.5 * (x - 3.0) ** 2, x - 3.0, 1.0

    assert nm.newton_minimum(profile, 10.0) == (0.0, 3.0)
    assert nm.newton_minimum(profile, 2.0) == (0.5, 2.0)
    assert nm.newton_minimum(lambda x: (x * x, x, 1.0), 5.0) == (0.0, 0.0)


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


def test_gauss_expectation_refines_a_short_segment_in_a_wide_window():
    # 64 panels shared over [-1800, 1800] by length leave [-27, 0.5] one
    # panel at 64 and at 128; the two equal estimates must not end the
    # doubling while that segment is unresolved
    val = nm.gauss_expectation(lambda h: ((h > -27.0) & (h < 0.5)).astype(float),
                               nm.QuadratureSpec(half_width=1800.0), breakpoints=(-27.0, 0.5))
    assert abs(val - 0.5 * nm.erfc(-0.5 / math.sqrt(2))) <= 1e-10


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


@pytest.mark.parametrize("field, value", [
    ("half_width", math.nan), ("half_width", math.inf), ("panels", 64.5),
    ("max_panels", 16384.0), ("max_panels", 32), ("rel_tol", math.nan),
    ("rel_tol", math.inf),
], ids=["nan-half_width", "inf-half_width", "fractional-panels", "float-max_panels",
        "max_panels-below-panels", "nan-rel_tol", "inf-rel_tol"])
def test_quadrature_spec_rejects_malformed_inputs(field, value):
    with pytest.raises(DomainError, match=field):
        nm.QuadratureSpec(**{field: value})


def test_quadrature_spec_takes_numpy_integer_panels():
    spec = nm.QuadratureSpec(panels=np.int64(128), max_panels=np.int64(4096))
    assert abs(nm.gauss_expectation(lambda h: h * h, spec) - 1.0) <= 1e-10


def _composite_gl_by_segment(f, segments, panels):
    """The segment-by-segment composite sum, one np.linspace and one call of
    f per segment: the reference for the blocked nm._composite_gl."""
    total = 0.0
    for (lo, hi), n_pan in zip(segments, panels):
        edges = np.linspace(lo, hi, n_pan + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = mid[:, None] + half[:, None] * nm._GL_NODES[None, :]
        vals = f(nodes.ravel()).reshape(nodes.shape)
        total += float(np.sum(half[:, None] * nm._GL_WEIGHTS[None, :] * vals))
    return total


UNEVEN_SEGMENTS = [
    ([(-10.0, 10.0)], [64]),
    ([(-13.7, -0.31), (-0.31, 0.2), (0.2, 41.3)], [29, 1, 89]),
    # more panels than one block, a block boundary inside a segment
    ([(-1800.0, -27.0), (-27.0, 0.5), (0.5, 1800.0)], [1700, 3, 700]),
    ([(-7.0, -2.0), (3.0, 9.5)], [5, 600]),  # segments need not touch
]


@pytest.mark.parametrize("segments, panels", UNEVEN_SEGMENTS)
def test_composite_gl_matches_the_segment_by_segment_sum(segments, panels):
    integrands = [
        lambda h: np.exp(-0.5 * h * h) * (1.0 + h * h),
        lambda h: np.exp(np.abs(h - 0.2) - 0.5 * h * h),
        lambda h: 1.0 / (1.0 + h * h),
    ]
    for f in integrands:
        want = _composite_gl_by_segment(f, segments, panels)
        (got,) = nm._composite_gl(lambda h, item: f(h), *np.transpose(segments), panels,
                                  [0] * len(segments), 1)
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("segments, panels", UNEVEN_SEGMENTS)
def test_panel_edges_land_on_the_segment_boundaries(segments, panels):
    blocks = list(nm._panel_blocks(*np.transpose(segments), panels))
    assert all(len(seg) <= nm._GL_BLOCK for seg, _, _ in blocks)
    seg, left, right = (np.concatenate(parts) for parts in zip(*blocks))
    ends = np.cumsum(panels)
    assert np.array_equal(seg, np.repeat(np.arange(len(panels)), panels))
    assert len(left) == len(right) == ends[-1]
    for (lo, hi), n, last in zip(segments, panels, ends - 1):
        first = last + 1 - n
        assert left[first] == lo and right[last] == hi
        assert np.array_equal(right[first:last], left[first + 1:last + 1])
        assert np.allclose(right[first:last + 1] - left[first:last + 1], (hi - lo) / n,
                           rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("g_is_log", [False, True], ids=["plain", "log"])
def test_quadrature_calls_the_integrand_one_block_at_a_time(g_is_log):
    # noise never converges, so the doubling runs to max_panels (and, for
    # log-values, on to the rounding check on the panels of the last
    # estimate); the 64 panels split 31 + 7 + 26 over the three segments
    rng = np.random.default_rng(0)
    sizes = []

    def noise(h):
        sizes.append(h.size)
        return rng.standard_normal(h.shape)

    spec = nm.QuadratureSpec()
    with pytest.raises(NonConvergentError):
        nm.gauss_expectation(noise, spec, breakpoints=(-0.3, 2.0), g_is_log=g_is_log)
    passes = [spec.panels << i for i in range((spec.max_panels // spec.panels).bit_length())]
    passes += [spec.max_panels] if g_is_log else []
    assert sizes == [16 * min(512, p - b) for p in passes for b in range(0, p, 512)]
    assert sum(sizes) == spec.max_panels * 16 * (3 if g_is_log else 2) - spec.panels * 16


# a strong-nonneg lift point whose short quadrature segment needs 520
# panels (tests/test_parity.py's "short-segment" tuple), and three whose
# estimates agree at 128; all four have their own window and breakpoints
SHORT_SEGMENT = lc.LiftParams(0.9752666691778795, 0.48783723028702103,
                              0.47230044480385636, 187.87508946770023)
SETTLED = [lc.LiftParams(0.7, 1.0, 0.3, 1.2), lc.LiftParams(2.0, 3.0, 1.5, 0.4),
           lc.LiftParams(0.2, 0.9, 0.0, 0.5)]
# a sectional lift point whose first piece reaches the doubling cap and is
# accepted on the rounding of its exponents (the "rounding-floor" tuple)
ROUNDING_FLOOR = lc.LiftParams(37.986835944156034, 18.993439681019428, 0.039177004595829415)


def lifted_items(integrand, points, beta=0.3, piece=0):
    """The batch integrand c3 * t(h, params) of one ExpPiece at several lift
    points, with the points' quadrature specs and breakpoints as the oracle
    builds them, and each point's one-item integrand."""
    t = integrand(points[0], beta)[1][piece].t
    cols = [np.array(col) for col in zip(*((p.c3, p.gamma, p.nu1, p.nu2) for p in points))]

    def batch(h, item):
        at = lc.LiftParams(*(col[item] for col in cols))
        return at.c3 * t(h, at)

    specs = [nm.QuadratureSpec(half_width=max(lc.window_half_width(p), 6.0)) for p in points]
    breaks = [integrand(p, beta)[1][piece].breakpoints for p in points]
    alone = [lambda h, p=p: p.c3 * t(h, p) for p in points]
    return batch, specs, breaks, alone


def test_a_batch_gives_each_item_its_one_item_value_and_doublings():
    points = [SETTLED[0], SHORT_SEGMENT, *SETTLED[1:]]
    batch, specs, breaks, alone = lifted_items(tn.nonneg_strong_integrand, points)
    assert len({s.half_width for s in specs}) == len({tuple(b) for b in breaks}) == 4
    rows = []

    def counted(h, item):
        assert h.shape == (len(item), 16) and item.shape == (len(item), 1)
        rows.append(np.bincount(item[:, 0], minlength=len(points)))
        return batch(h, item)

    values = nm.gauss_expectation(counted, specs, breaks, g_is_log=True)
    assert max(r.sum() for r in rows) <= nm._GL_BLOCK  # 512 * 16 nodes a call at most
    calls = []
    for i, (spec, bps, g) in enumerate(zip(specs, breaks, alone)):
        seen = []

        def one(h, g=g, seen=seen):
            seen.append(len(h))
            return g(h)

        want = nm.gauss_expectation(one, spec, bps, g_is_log=True)
        assert abs(values[i] - want) <= 1e-14 * abs(want), i
        # the item sees in the batch the panels it sees alone: its own doublings
        assert sum(r[i] for r in rows) == sum(seen), i
        calls.append(len(seen))
    # below 512 panels a doubling step is one call: the settled points stop
    # at 128 panels, the short segment needs two more doublings
    assert calls == [2, 5, 2, 2]
    assert len(rows) < sum(calls)  # blocks span items


def test_the_rounding_acceptance_is_judged_per_item():
    points = [SETTLED[2], ROUNDING_FLOOR, lc.LiftParams(0.9, 1.2, 0.4)]
    batch, specs, breaks, alone = lifted_items(tg.sectional_integrand, points, beta=0.111)
    rows = []

    def counted(h, item):
        rows.append(np.bincount(item[:, 0], minlength=len(points)))
        return batch(h, item)

    values = nm.gauss_expectation(counted, specs, breaks, g_is_log=True)
    # the rounding-floor item ran every doubling to 16384 panels and then its
    # rounding pass on the last of them; the others stopped at 128
    first = rows[0]
    assert [sum(r[i] for r in rows) for i in range(3)] == [3 * first[0], first[1] * (511 + 256),
                                                           3 * first[2]]
    for i, g in enumerate(alone):
        want = nm.gauss_expectation(g, specs[i], breaks[i], g_is_log=True)
        assert abs(values[i] - want) <= 1e-14 * abs(want), i
    # log-values of noise never settle and their rounding cannot excuse
    # that; only the noise item fails, and the error names it
    rng = np.random.default_rng(0)

    def with_noise(h, item):
        return np.where(item == 2, rng.standard_normal(h.shape), batch(h, item))

    with pytest.raises(NonConvergentError, match="quadrature of item 2 did not stabilize"):
        nm.gauss_expectation(with_noise, specs, breaks, g_is_log=True)


def test_a_nonconvergent_item_raises_and_is_named():
    # the oscillation of test_gauss_expectation_nonconvergent, as items 1
    # and 3 of a batch whose other items converge
    tight = nm.QuadratureSpec(half_width=10.0, panels=64, rel_tol=1e-12, max_panels=256)
    specs = [nm.QuadratureSpec(), tight, nm.QuadratureSpec(half_width=12.0), tight]

    def g(h, item):
        return np.where(item % 2 == 1, np.cos(500.0 * h) * h * h, h * h)

    with pytest.raises(NonConvergentError, match="quadrature of item 1 did not stabilize "
                                                 "to rel_tol=1e-12 within 256 panels"):
        nm.gauss_expectation(g, specs, [(), (), (0.5,), ()])
    values = nm.gauss_expectation(lambda h, item: h * h, specs[::2], [(), (0.5,)])
    assert all(abs(v - 1.0) <= 1e-10 for v in values)
    with pytest.raises(NonConvergentError) as one:
        nm.gauss_expectation(lambda h: np.cos(500.0 * h) * h * h, tight)
    assert "item" not in str(one.value)


def test_an_empty_batch_is_an_empty_list():
    assert nm.gauss_expectation(lambda h, item: h, [], []) == []
    with pytest.raises(ValueError):
        nm.gauss_expectation(lambda h, item: h, [nm.QuadratureSpec()], [(), ()])


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
        h = np.clip(h, lo, hi)  # no exp overflow outside the window
        return np.where(inside, np.exp(p * h * h + s * h + c), 0.0)

    sig = 1.0 / math.sqrt(1.0 - 2.0 * max(p, 0.0))
    spec = nm.QuadratureSpec(half_width=max(10.0, 12.0 * sig + abs(s) + 5.0),
                             rel_tol=1e-11)
    numeric = nm.gauss_expectation(g, spec, breakpoints=(lo, hi))
    assert abs(closed - numeric) <= 1e-9 * max(1.0, abs(closed))


@pytest.mark.parametrize("b, x0, c, lo, hi", [
    (0.3, 0.7, -0.2, -1.0, 2.5),
    (0.3, -0.7, 0.4, 0.0, math.inf),
    (0.45, 1.2, 1.0, -math.inf, 0.3),
    (-0.4, 2.0, 0.0, 2.0, math.inf),
    (0.2, 0.0, 0.0, -math.inf, math.inf),
    (0.49, 5.0, -1.0, 5.0, 9.0),
])
def test_gaussian_quadratic_moments_match_quadrature(b, x0, c, lo, hi):
    moments = nm.gaussian_quadratic_moments(b, x0, c, lo, hi)
    assert moments[0] == nm.gaussian_quadratic_integral(b, -2 * b * x0, b * x0 * x0 + c, lo, hi)
    for k, closed in enumerate(moments):
        def f(h, k=k):  # the Gaussian weight folded into the exponent
            return (h - x0) ** k * math.exp(b * (h - x0) ** 2 + c - 0.5 * h * h) / nm.SQRT2PI

        numeric = quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        assert closed == pytest.approx(numeric, rel=1e-9, abs=1e-12), k


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
