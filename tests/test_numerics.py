"""Special functions, root finding, minimization, quadrature."""

import math

import numpy as np
import pytest
from bounded_brent import minimize_bounded
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar

from l1lab import lift_core as lc
from l1lab import numerics as nm
from l1lab import thresholds_general as tg
from l1lab import thresholds_nonneg as tn
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


def _erfinv_sweep():
    inner = np.linspace(-1.0, 1.0, 4001)[1:-1]
    edges = [np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 1e-300, -1e-300, 5e-324,
             0.0, -0.0, 1e-8, 0.5 - 1e-17, 0.9999999999]
    return np.concatenate([inner, edges])


def test_erfinv_scalar_path_matches_array_path():
    sweep = _erfinv_sweep()
    by_array = nm.erfinv(sweep)
    for p, want in zip(sweep.tolist(), by_array.tolist()):
        for scalar in (p, np.float64(p)):
            got = nm.erfinv(scalar)
            assert type(got) is float
            assert got.hex() == want.hex(), p


@pytest.mark.parametrize("p", [1.0, -1.0, 1.0 + 2e-16, -1.5, math.inf, -math.inf])
def test_erfinv_domain_error_on_every_path(p):
    for value in (p, np.float64(p), np.array(p), np.array([0.0, p])):
        with pytest.raises(DomainError):
            nm.erfinv(value)


def test_erfinv_nan_passes_through():
    for value in (math.nan, np.float64(math.nan), np.array(math.nan)):
        got = nm.erfinv(value)
        assert type(got) is float and math.isnan(got)
    out = nm.erfinv(np.array([math.nan, 0.0]))
    assert math.isnan(out[0]) and out[1] == 0.0


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
# projected_bfgs: a projected quasi-Newton search on analytic gradients
# ---------------------------------------------------------------------------

def rosen_fg(v):
    x, y = v
    return ((1 - x) ** 2 + 100 * (y - x * x) ** 2,
            [-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])


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
    x, (fun, grad) = nm.projected_bfgs(lambda v: (math.inf, None), [2.0, 7.0],
                                       [(0.0, 1.0), (0.0, 5.0)], fatol=1e-14, max_iter=10)
    assert x == [1.0, 5.0] and fun == math.inf and grad is None


def test_minimize_leaves_a_face_a_bounded_simplex_collapses_onto():
    # on this convex quadratic a bounded Nelder-Mead (scipy's, say) stops
    # at f = 0.1008 with x[3] pinned at its lower bound, where L-BFGS-B
    # finds 0.0217
    diag, centre = (2.0, 1.0, 1.0, 0.5), (0.3, 0.1, 0.5, 0.4)
    bounds = [(-1.0, 1.0), (0.25, 1.0), (0.0, 1.0), (0.0, 3.0)]

    def fg(v):
        d = [vi - ci for vi, ci in zip(v, centre)]
        grad = [2 * h * di for h, di in zip(diag, d)]
        for i in range(3):
            grad[i] += 0.3 * d[i + 1]
            grad[i + 1] += 0.3 * d[i]
        return (sum(h * di * di for h, di in zip(diag, d))
                + 0.3 * sum(a * b for a, b in zip(d, d[1:])), grad)

    x, (fun, _) = nm.projected_bfgs(fg, [0.9, 0.9, 0.1, 2.9], bounds, fatol=1e-16,
                                    max_iter=200)
    ref = minimize(lambda v: fg(list(v))[0], [0.9, 0.9, 0.1, 2.9], jac=lambda v: fg(list(v))[1],
                   method="L-BFGS-B", bounds=bounds, options={"ftol": 1e-15, "gtol": 1e-12})
    assert ref.fun == pytest.approx(0.0217, abs=1e-4)
    assert fun <= ref.fun + 1e-12
    assert x[1] == 0.25 and 0.0 < x[3]


def run_contract(kind, alpha, beta, start):
    """One lifted probe from start that checks the contract: every q the
    search evaluates lies in the probe's box, the end is reported in
    SEARCH_BOX with the closed-form total there, never above the total at
    the clipped start.  Returns (total, params, number of evaluations)."""
    spec = lc.kind_table()[kind].lifted
    seen = []
    profile_objective = lc._profile_objective

    def logged(*args):
        profile = profile_objective(*args)

        def evaluate(q):
            seen.append(list(q))
            return profile(q)
        return evaluate

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lc, "_profile_objective", logged)
        total, params = lc.minimize_lifted_total(spec, alpha, beta, start)
    box = lc._Q_BOX[:1 + spec.n_extra]
    for q in seen:
        assert all(lo <= v <= hi for v, (lo, hi) in zip(q, box)), q
    assert params == params.clipped()
    assert total == lc.lifted_total(spec, params, alpha, beta)
    assert total <= lc.lifted_total(spec, start.clipped(), alpha, beta)
    return total, params, len(seen)


def lift_start(x):
    """LiftParams from x = [c3, b, nu1(, nu2)], which may lie past SEARCH_BOX."""
    return lc.LiftParams(c3=x[0], gamma=x[0] / (4.0 * x[1]), nu1=x[2],
                         nu2=x[3] if len(x) > 3 else 0.0)


# these contract tests keep the names they had when a simplex ran the probes
@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_nelder_mead_never_above_start_on_lifted_objectives(kind):
    rng = np.random.default_rng({"sectional": 3, "strong": 4, "strong_nonneg": 5}[kind])
    for _ in range(4):
        alpha, beta = rng.uniform(0.05, 0.999), rng.uniform(1e-3, 0.45)
        # starts inside the box and, for the clip, past its edges
        x = [math.exp(rng.uniform(-12.0, 9.0)), rng.uniform(0.05, 0.6)]
        x += [rng.uniform(-1.0, 3.0) for _ in range(1 if kind == "sectional" else 2)]
        run_contract(kind, alpha, beta, lift_start(x))


def test_nelder_mead_never_above_start_on_the_c3_and_b_corner():
    # starts on C3_MAX and at or near B_MAX
    cases = [
        ("sectional", 0.999, 0.48, [lc.C3_MAX, 0.49, 0.03]),
        ("strong", 0.999, 0.23, [lc.C3_MAX, 0.49, 0.03, 0.04]),
        ("strong_nonneg", 0.999, 0.47, [lc.C3_MAX, lc.B_MAX, 0.002, 0.0026]),
    ]
    for kind, alpha, beta, x in cases:
        start = lift_start(x)
        total, _, _ = run_contract(kind, alpha, beta, start)
        spec = lc.kind_table()[kind].lifted
        assert total < lc.lifted_total(spec, start.clipped(), alpha, beta)


def test_nelder_mead_never_above_start_on_the_inf_plateau_past_b_half():
    # starts at b past 1/2 (clipped to B_MAX) with a moment that overflows
    # there: the probe halves b until the total is finite
    cases = [("sectional", [0.5, 0.6, 12.0]), ("strong", [1.0, 0.7, 12.0, 2.0]),
             ("strong_nonneg", [1.0, 0.7, 12.0, 2.0])]
    for kind, x in cases:
        spec = lc.kind_table()[kind].lifted
        assert lc.lifted_total(spec, lift_start(x).clipped(), 0.7, 0.1) == math.inf
        total, _, _ = run_contract(kind, 0.7, 0.1, lift_start(x))
        assert math.isfinite(total)


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
# minimize_bounded (tests/bounded_brent.py): a step-for-step replay of
# scipy's bounded Brent
# ---------------------------------------------------------------------------

def _logged(f, log):
    def g(x):
        log.append(float(x).hex())
        return f(x)
    return g


def _assert_replays_scipy(f, lo, hi, xatol=1e-12, maxiter=500):
    seen_scipy, seen_ours = [], []
    want = minimize_scalar(_logged(f, seen_scipy), bounds=(lo, hi), method="bounded",
                           options={"xatol": xatol, "maxiter": maxiter})
    got = minimize_bounded(_logged(f, seen_ours), lo, hi, xatol=xatol, maxiter=maxiter)
    assert seen_ours == seen_scipy
    assert float(got.x).hex() == float(want.x).hex()
    assert float(got.fun).hex() == float(want.fun).hex()
    assert got.nfev == want.nfev == len(seen_ours)
    return got


def _plateau(x):
    # flat at 0 on [-1, 1]: most comparisons there are ties
    return max(abs(x) - 1.0, 0.0) ** 2


REPLAY_CASES = {
    "smooth": (lambda x: math.cos(3.0 * x) + 0.1 * x * x, -2.0, 3.0),
    "kink": (lambda x: abs(x - 0.3), -1.0, 2.0),
    "kink-at-golden-point": (lambda x: abs(x - (0.5 * (3.0 - math.sqrt(5.0)))), 0.0, 1.0),
    "plateau": (_plateau, -3.0, 2.0),
    "staircase": (lambda x: math.floor(4.0 * x) / 4.0, -1.0, 1.0),
    "min-on-lower-bound": (lambda x: x, 0.0, 1.0),
    "min-on-upper-bound": (lambda x: -x * x * x, -1.0, 2.0),
    "constant": (lambda x: 1.0, 0.0, 5.0),
    "zero-width": (lambda x: x * x, 0.7, 0.7),
    "nan-above-1": (lambda x: math.nan if x > 1.0 else (x - 0.5) * (x - 0.5), 0.0, 3.0),
    "nan-below-1": (lambda x: math.nan if x < 1.0 else (x - 2.5) * (x - 2.5), 0.0, 3.0),
    "inf-above-1": (lambda x: math.inf if x > 1.0 else (x - 0.5) * (x - 0.5), 0.0, 3.0),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
@pytest.mark.parametrize("xatol", [1e-12, 1e-5, 0.3])
def test_minimize_bounded_replays_scipy(case, xatol):
    f, lo, hi = REPLAY_CASES[case]
    _assert_replays_scipy(f, lo, hi, xatol=xatol)


@pytest.mark.parametrize("maxiter", [1, 2, 5, 9])
def test_minimize_bounded_replays_scipy_maxiter_stop(maxiter):
    f, lo, hi = REPLAY_CASES["smooth"]
    got = _assert_replays_scipy(f, lo, hi, maxiter=maxiter)
    assert got.nfev == max(maxiter, 2)  # the first step always runs


def test_minimize_bounded_replays_scipy_on_seeded_functions():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lo = float(rng.uniform(-5.0, 1.0))
        hi = lo + float(rng.uniform(1e-6, 6.0))
        c, w, k = (float(v) for v in rng.uniform([-5.0, 0.1, 0.0], [5.0, 3.0, 4.0]))
        _assert_replays_scipy(lambda x: w * abs(x - c) + math.sin(k * x) + 0.01 * x * x,
                              lo, hi, xatol=float(10.0 ** rng.uniform(-12, -2)))


def test_minimize_bounded_replays_scipy_on_the_direct_objectives():
    for beta in (1e-4, 0.01, 0.2, 0.4999):
        for _, value, _, hi, _ in direct_objectives(beta).values():
            _assert_replays_scipy(value, 0.0, hi)


def test_minimize_bounded_rejects_bad_bounds():
    for lo, hi in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(DomainError):
            minimize_bounded(lambda x: x, lo, hi)


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
        assert abs(nm._composite_gl(f, segments, panels) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("segments, panels", UNEVEN_SEGMENTS)
def test_panel_edges_land_on_the_segment_boundaries(segments, panels):
    left, right = nm._panel_edges(segments, panels)
    ends = np.cumsum(panels)
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
