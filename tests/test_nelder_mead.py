"""numerics.nelder_mead replays scipy's bounded Nelder-Mead bit for bit.

Every case runs the same objective through scipy.optimize.minimize
(method="Nelder-Mead", bounds=...) and through nelder_mead and demands the
same x (bytes, so signed zeros count), fun, nfev and success flag.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from l1lab import lift_core as lc
from l1lab import numerics as nm
from l1lab import thresholds_general as tg
from l1lab import thresholds_nonneg as tn

NU_BOUNDS = {
    "sectional": [(0.0, 14.0)],
    "strong": [(0.0, 14.0), (0.0, 400.0)],
    "strong_nonneg": [(0.0, 14.0), (0.0, 400.0)],
}
SET_TERMS = {
    "sectional": tg._sectional_set_term_raw,
    "strong": tg._strong_set_term_raw,
    "strong_nonneg": tn._nonneg_set_term_raw,
}


def lifted_problem(kind, alpha, beta, b_max=lc.B_MAX):
    objective = lc._total_objective(SET_TERMS[kind], alpha, beta)
    bounds = [(lc.LOG_C3_MIN, lc.LOG_C3_MAX), (1e-7, b_max), *NU_BOUNDS[kind]]
    return objective, bounds


def run_both(f, x0, bounds, **opts):
    """(ours, scipy's) on the same problem; scipy gets an ndarray objective."""
    got = nm.nelder_mead(f, x0, bounds, **opts)
    options = {k: v for k, v in opts.items() if v is not None}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = minimize(lambda v: f(list(v)), np.asarray(x0, dtype=float),
                       method="Nelder-Mead", bounds=bounds, options=options)
    return got, ref


def assert_same(got, ref):
    assert np.asarray(got.x, dtype=float).tobytes() == ref.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert got.nfev == ref.nfev
    assert got.nit == ref.nit
    assert got.success == bool(ref.success)


class TieRecorder:
    """Wraps nm._order to count orderings that had to break a tie."""

    def __init__(self, monkeypatch):
        self.finite = 0
        self.infinite = 0
        original = nm._order

        def order(sim, fsim):
            finite = [v for v in fsim if math.isfinite(v)]
            self.finite += len(set(finite)) < len(finite)
            self.infinite += sum(v == math.inf for v in fsim) > 1
            return original(sim, fsim)

        monkeypatch.setattr(nm, "_order", order)


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_replays_scipy_on_seeded_lifted_objectives(kind):
    rng = np.random.default_rng({"sectional": 3, "strong": 4, "strong_nonneg": 5}[kind])
    for _ in range(4):
        alpha, beta = rng.uniform(0.05, 0.999), rng.uniform(1e-3, 0.45)
        f, bounds = lifted_problem(kind, alpha, beta)
        x0 = [rng.uniform(-3.0, 3.0), rng.uniform(0.05, 0.45)]
        x0 += [rng.uniform(0.0, 3.0) for _ in NU_BOUNDS[kind]]
        got, ref = run_both(f, x0, bounds, xatol=1e-10, fatol=1e-12,
                            maxiter=1500, maxfev=1500)
        assert_same(got, ref)


def test_replays_scipy_with_vertices_tied_on_the_c3_bound(monkeypatch):
    ties = TieRecorder(monkeypatch)
    cases = [
        ("sectional", 0.999, 0.48, [lc.LOG_C3_MAX, 0.49, 0.03]),
        ("strong", 0.999, 0.23, [lc.LOG_C3_MAX, 0.49, 0.03, 0.04]),
        ("strong_nonneg", 0.999, 0.47, [lc.LOG_C3_MAX, lc.B_MAX, 0.002, 0.0026]),
    ]
    for kind, alpha, beta, x0 in cases:
        f, bounds = lifted_problem(kind, alpha, beta)
        before = ties.finite
        got, ref = run_both(f, x0, bounds, xatol=1e-10, fatol=1e-12,
                            maxiter=1500, maxfev=1500)
        assert_same(got, ref)
        assert ties.finite > before, f"{kind}: no tied finite vertices occurred"


def test_replays_scipy_across_inf_plateaus_beyond_b_half(monkeypatch):
    # with the b box opened past 1/2 the objective is +inf on a plateau;
    # starts straddling it and starts on it (every vertex tied at inf)
    ties = TieRecorder(monkeypatch)
    cases = [("sectional", [0.5, 0.48, 1.0]), ("sectional", [0.5, 0.6, 1.0]),
             ("strong_nonneg", [1.0, 0.47, 0.5, 2.0]), ("strong_nonneg", [1.0, 0.7, 0.5, 2.0])]
    for kind, x0 in cases:
        f, bounds = lifted_problem(kind, 0.7, 0.1, b_max=0.9)
        assert f([0.5, 0.6] + x0[2:]) == math.inf
        got, ref = run_both(f, x0, bounds, xatol=1e-10, fatol=1e-12,
                            maxiter=600, maxfev=600)
        assert_same(got, ref)
    assert ties.infinite > 0


def test_replays_scipy_when_maxfev_runs_out_mid_shrink():
    # a seeded strong problem whose search shrinks its 4-D simplex at
    # evaluations 75-78; budgets around it stop before, inside and after
    f, bounds = lifted_problem("strong", 0.8209062928075801, 0.3008823431015367)
    x0 = [2.7504817906677115, 0.4202858308857675, 2.244745509905262, 2.582104228643033]
    mid_shrink = 0
    for maxfev in range(70, 82):
        got, ref = run_both(f, x0, bounds, xatol=1e-10, fatol=1e-12,
                            maxiter=maxfev, maxfev=maxfev)
        assert_same(got, ref)
        assert not got.success
        # only a shrink moves a vertex before evaluating it, so a stale
        # value in scipy's final simplex marks a budget stop inside one
        sim, fsim = ref.final_simplex
        mid_shrink += any(f(list(v)) != fv for v, fv in zip(sim, fsim))
    assert mid_shrink >= 3


def test_replays_scipy_on_rosenbrock():
    def rosen(v):
        return (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2

    for x0, bounds in [([-1.2, 1.0], None),
                       ([-1.2, 1.0], [(-2.0, 0.5), (None, 3.0)]),
                       ([0.0, 0.0], [(0.0, 2.0), (0.0, 2.0)])]:
        got, ref = run_both(rosen, x0, bounds)  # default tolerances and budgets
        assert_same(got, ref)
        got, ref = run_both(rosen, x0, bounds, xatol=1e-12, fatol=1e-14, maxiter=5000)
        assert_same(got, ref)
        assert got.success


def test_rejects_inverted_bounds():
    with pytest.raises(nm.DomainError):
        nm.nelder_mead(lambda v: v[0] ** 2, [0.0], [(1.0, -1.0)])
