"""Sphere term, master condition, set-term oracle, threshold search."""

import functools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from l1lab import lift_core as lc
from l1lab.config import DEFAULT
from l1lab.errors import ConstraintViolatedError, DomainError


def sphere_objective(gamma, c3, alpha):
    """The sphere-scale maximization objective over gamma < 0."""
    return gamma - alpha / (2.0 * c3) * math.log(1.0 - c3 / (2.0 * gamma))


def i_sph_grid_oracle(c3, alpha):
    """Maximize sphere_objective on a refined gamma grid (independent route,
    built from the per-coordinate chi-square moment identity)."""
    gs = np.linspace(-6.0, -1e-6, 40001)
    vals = [sphere_objective(g, c3, alpha) for g in gs]
    i = int(np.argmax(vals))
    res = minimize_scalar(lambda g: -sphere_objective(g, c3, alpha),
                          bounds=(gs[max(i - 1, 0)], gs[min(i + 1, len(gs) - 1)]),
                          method="bounded", options={"xatol": 1e-13})
    return -res.fun


def test_sphere_gamma_hat_trivials():
    assert abs(lc.sphere_gamma_hat(0.0, 1.0) - (-0.5)) <= 1e-15
    assert abs(lc.sphere_gamma_hat(0.0, 0.25) - (-0.25)) <= 1e-15


def test_sphere_gamma_hat_is_stationary_point():
    c3, alpha = 1.0, 0.5
    g = lc.sphere_gamma_hat(c3, alpha)
    eps = 1e-7
    deriv = (sphere_objective(g + eps, c3, alpha)
             - sphere_objective(g - eps, c3, alpha)) / (2 * eps)
    assert abs(deriv) <= 1e-6


def test_i_sph_small_c3_limit():
    assert abs(lc.i_sph(1e-8, 0.25) - (-0.5)) <= 1e-6
    assert abs(lc.i_sph(1e-8, 1.0) - (-1.0)) <= 1e-6


def test_i_sph_matches_grid_maximization_oracle():
    for c3, alpha in [(0.5, 0.5), (1.0, 0.3), (0.1, 0.9)]:
        assert abs(lc.i_sph(c3, alpha) - i_sph_grid_oracle(c3, alpha)) <= 1e-6


def test_i_sph_continuity_at_zero():
    for alpha in np.linspace(0.05, 0.95, 19):
        assert abs(lc.i_sph(1e-6, alpha) + math.sqrt(alpha)) <= 1e-5


def test_i_sph_domain():
    with pytest.raises(DomainError):
        lc.i_sph(0.0, 0.5)
    term = lc.sphere_term(0.0, 0.49)
    assert term.value == -math.sqrt(0.49)
    assert term.gamma_hat == pytest.approx(-math.sqrt(0.49) / 2, abs=1e-15)


def test_master_condition_trivials():
    ev = lc.master_condition(0.0, 1e-8, 0.25)
    assert abs(ev.total - (-0.5)) <= 1e-6
    assert ev.feasible
    ev = lc.master_condition(1.0, 1e-8, 0.25)
    assert abs(ev.total - 0.5) <= 1e-6
    assert not ev.feasible


def test_master_condition_continuity_in_c3():
    from l1lab.thresholds_general import sectional_set_term_lifted

    grid = np.linspace(1e-3, 2.0, 400)
    prev = None
    for c3 in grid:
        params = lc.LiftParams(c3=c3, gamma=max(c3 / (4 * 0.3), 0.5), nu1=1.0)
        total = lc.master_condition(
            sectional_set_term_lifted(0.1, params), c3, 0.5
        ).total
        assert np.isfinite(total)
        if prev is not None:
            assert abs(total - prev) <= 0.05
        prev = total


def test_lift_params_constraint():
    good = lc.LiftParams(c3=1.0, gamma=0.6)
    good.require_convergent()
    bad = lc.LiftParams(c3=1.0, gamma=0.5)  # b = 1/2 exactly
    with pytest.raises(ConstraintViolatedError):
        bad.require_convergent()


def test_exp_set_term_oracle_constant_exponent():
    kappa = 0.7

    def integrand(params, beta):
        return 0.0, (lc.ExpPiece(weight=1.0,
                                 t=lambda h: np.full_like(h, kappa),
                                 breakpoints=(), half_width=10.0),)

    params = lc.LiftParams(c3=0.8, gamma=1.0)
    val = lc.exp_set_term_oracle(integrand, params, beta=0.3)
    assert abs(val - kappa) <= 1e-10


def test_exp_set_term_oracle_rejects_invalid_b():
    def integrand(params, beta):
        return 0.0, ()

    with pytest.raises(ConstraintViolatedError):
        lc.exp_set_term_oracle(integrand, lc.LiftParams(c3=2.0, gamma=0.5), 0.3)


# ---------------------------------------------------------------------------
# threshold bisection
# ---------------------------------------------------------------------------

def test_threshold_validation():
    with pytest.raises(DomainError):
        lc.threshold_bisect(1.5, "sectional", "lifted")
    with pytest.raises(DomainError):
        lc.threshold_bisect(0.5, "nope", "lifted")
    with pytest.raises(DomainError):
        lc.threshold_bisect(0.5, "sectional", "fancy")
    with pytest.raises(DomainError):
        lc.threshold_bisect(0.5, "sectional", "lifted", tol_beta=1e-6)
    # direct, so that a missing check returns instead of stepping forever
    for tol in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="finite"):
            lc.threshold_bisect(0.5, "sectional", "direct", tol_beta=tol)


def test_threshold_sectional_direct_table_point():
    r = lc.threshold_bisect(0.3, "sectional", "direct")
    assert abs(r.beta - 0.0481) <= 5e-4
    assert r.condition_margin < 0
    # the next bisection step up must be infeasible
    from l1lab.thresholds_general import sectional_margin_direct

    m_up, _ = sectional_margin_direct(0.3, r.beta + 2e-5)
    assert m_up > -1e-9


def test_threshold_sectional_lifted_table_point():
    r = lc.threshold_bisect(0.5, "sectional", "lifted")
    assert abs(r.beta - 0.1045) <= 5e-4
    p = r.params_at_optimum
    assert p is not None and p.b < 0.5 and p.c3 > 0
    # at the boundary the minimized master condition sits at zero
    assert abs(r.condition_margin) <= 5e-3


def test_threshold_weak_inverts_characterization():
    from l1lab.thresholds_general import weak_alpha_of_beta

    r = lc.threshold_bisect(0.5, "weak", "direct")
    assert abs(weak_alpha_of_beta(r.beta) - 0.5) <= 1e-3
    assert r.params_at_optimum is None


def test_lifting_dominance_spot():
    # the direct bound is the c3 -> 0 member of the lifted family
    for alpha in (0.25, 0.6):
        direct = lc.threshold_bisect(alpha, "sectional", "direct")
        lifted = lc.threshold_bisect(alpha, "sectional", "lifted")
        assert lifted.beta >= direct.beta - 1e-5
        p = lifted.params_at_optimum
        assert all(type(v) is float for v in p.to_dict().values())


# ---------------------------------------------------------------------------
# the lifted objective on Python floats: overflow and domain edges give inf
# ---------------------------------------------------------------------------

LOG_400 = math.log(400.0)


@pytest.mark.parametrize("kind, x", [
    # c3 * nu2 >= 700: the flat branch exp(c3 nu2) saturates
    ("strong", [LOG_400, 0.3, 1.0, 2.0]),
    ("strong_nonneg", [LOG_400, 0.3, 1.0, 2.0]),
    # b = B_MAX: the completed-square exponent saturates
    ("sectional", [LOG_400, lc.B_MAX, 1.0]),
    ("strong", [LOG_400, lc.B_MAX, 1.0, 1.0]),
    ("strong_nonneg", [LOG_400, lc.B_MAX, 1.0, 1.0]),
    # nu1 = 0 < nu2 (strong regime 1, crossing at infinity): inf * erf(0) is NaN
    ("strong", [LOG_400, 0.3, 0.0, 2.0]),
    # entry point nu1 - sqrt(8 gamma nu2) near -1.8e6
    ("strong_nonneg", [LOG_400, 1e-7, 0.0, 400.0]),
    # negative multipliers
    ("sectional", [0.0, 0.3, -1e-3]),
    ("strong", [0.0, 0.3, 1.0, -1e-3]),
    ("strong_nonneg", [0.0, 0.3, -1e-3, 1.0]),
])
def test_lifted_objective_edges_return_inf(kind, x):
    from l1lab import thresholds_general as tg
    from l1lab import thresholds_nonneg as tn

    set_term = {"sectional": tg._sectional_set_term_raw,
                "strong": tg._strong_set_term_raw,
                "strong_nonneg": tn._nonneg_set_term_raw}[kind]
    for alpha, beta in [(0.5, 0.1), (0.999, 0.45)]:
        val = lc._total_objective(set_term, alpha, beta)(x)
        assert type(val) is float and val == math.inf


def test_lifted_objective_finite_far_from_the_edges():
    from l1lab import thresholds_nonneg as tn

    # a very negative entry point (about -2.8e3) whose left tail underflows
    objective = lc._total_objective(tn._nonneg_set_term_raw, 0.5, 0.1)
    val = objective([math.log(1e-3), 1e-7, 0.0, 400.0])
    assert type(val) is float and math.isfinite(val)


def test_x_to_params_gives_plain_floats():
    p = lc.x_to_params(np.array([0.3, 0.25, 1.5, 2.0]))
    assert all(type(v) is float for v in p.to_dict().values())
    assert p.b == pytest.approx(0.25, rel=1e-15)


# ---------------------------------------------------------------------------
# rarely taken branches of threshold_bisect, driven by stub margins
# ---------------------------------------------------------------------------

def stub_margins(monkeypatch, feasible):
    """Replace every kind's margin by feasible(beta) -> -1 / +1 stubs and
    record each probe as (beta, warm)."""
    probes = []

    def margin(alpha, beta, warm=None):
        probes.append((beta, warm))
        return (-1.0 if feasible(beta) else 1.0), None

    monkeypatch.setattr(lc, "_margin_provider", lambda kind, method: margin)
    return probes


def stub_lifted(monkeypatch, root, slope=1.0):
    """Replace every lifted kind by a stub whose set term at params p is
    slope * beta - p.nu1, and every margin by slope * beta - root(beta);
    a warm start at p caps the margin at the total p certifies, as a
    minimization started there would.  Records each probe as (beta, warm)."""
    probes = []
    spec = lc.LiftedKind(set_term=lambda c3, gamma, extras, beta: slope * beta - extras[0],
                         integrand=None, direct=lambda beta: (1.0, 0.0))

    def margin(alpha, beta, warm=None):
        probes.append((beta, warm))
        m = slope * beta - root(beta)
        if warm is not None:
            m = min(m, spec.set_term_at(beta, warm))
        return m, lc.LiftParams(c3=1.0, gamma=1.0, nu1=slope * beta - m)

    monkeypatch.setattr(lc, "_margin_provider", lambda kind, method: margin)
    monkeypatch.setattr(lc, "lifted_kinds", lambda: dict.fromkeys(lc.KINDS, spec))
    return probes


def test_lifted_search_goes_on_after_a_feasible_thorough_confirm(monkeypatch):
    # the certificates of the optimum with root 0.25 run out there; the
    # probe tol_beta above it finds the better optimum with root 0.3, and
    # the steps continue from its certificate
    probes = stub_lifted(monkeypatch, root=lambda beta: 0.25 if beta < 0.25 else 0.3)
    r = lc.threshold_bisect(0.5, "sectional", "lifted")
    assert 0.3 - 2e-5 <= r.beta < 0.3
    assert r.condition_margin < -DEFAULT.feasibility_margin
    betas = [b for b, _ in probes]
    assert [round(b, 4) for b in betas] == [lc.BETA_FLOOR, 0.25, 0.25, 0.3, 0.3]
    assert betas[2] - betas[1] == pytest.approx(DEFAULT.tol_beta, rel=1e-6)
    assert betas[4] - betas[3] == pytest.approx(DEFAULT.tol_beta, rel=1e-6)
    assert all(warm is not None for _, warm in probes)


@pytest.mark.parametrize("slope", [1.0, 0.0])
def test_lifted_certificate_reaching_the_cap_returns_the_cap(monkeypatch, slope):
    probes = stub_lifted(monkeypatch, root=lambda beta: 0.7, slope=slope)
    r = lc.threshold_bisect(0.5, "strong_nonneg", "lifted")
    cap = lc._BETA_CAPS["strong_nonneg"]
    assert r.beta == cap and r.condition_margin == slope * cap - 0.7
    assert [b for b, _ in probes] == [lc.BETA_FLOOR, cap]


def test_bisect_floor_infeasible_raises_range_error(monkeypatch):
    probes = stub_margins(monkeypatch, feasible=lambda b: False)
    with pytest.raises(lc.ThresholdRangeError, match="bisection floor"):
        lc.threshold_bisect(0.5, "strong", "lifted")
    assert [b for b, _ in probes] == [lc.BETA_FLOOR]


def test_bisect_whole_range_feasible_returns_the_cap(monkeypatch):
    probes = stub_margins(monkeypatch, feasible=lambda b: True)
    r = lc.threshold_bisect(0.5, "strong_nonneg", "direct")
    cap = lc._BETA_CAPS["strong_nonneg"]
    assert r.beta == cap and r.condition_margin == -1.0
    assert [b for b, _ in probes] == [lc.BETA_FLOOR, cap]


# ---------------------------------------------------------------------------
# the shared lifted route (one LiftedKind per kind)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sectional", "strong", "strong_nonneg"])
def test_floor_start_carries_the_direct_optimum(name, monkeypatch):
    kind = lc.lifted_kinds()[name]
    alpha, beta = 0.5, lc.BETA_FLOOR
    _, direct = lc.direct_margin(kind, alpha, beta)
    assert direct.c3 == 0.0 and direct.gamma > 1e-6
    start = lc.params_to_x(lc.floor_start(kind, beta), kind.n_extra)
    expected = [math.log(1e-3), min(max(1e-3 / (4.0 * direct.gamma), 1e-6), 0.49),
                direct.nu1]
    if kind.nu2 is None:
        assert direct.nu2 == 0.0
    else:
        expected.append(min(direct.nu2, 400.0))
    assert start == expected
    # the lifted search's floor probe is warm-started there
    probes = stub_margins(monkeypatch, feasible=lambda b: False)
    with pytest.raises(lc.ThresholdRangeError):
        lc.threshold_bisect(alpha, name, "lifted")
    [(floor, warm)] = probes
    assert floor == beta and warm == lc.floor_start(kind, beta)


@pytest.mark.parametrize("name", ["sectional", "strong", "strong_nonneg"])
def test_set_term_at_checks_the_convergence_constraint(name):
    kind = lc.lifted_kinds()[name]
    ok = lc.LiftParams(c3=0.5, gamma=1.0, nu1=0.4, nu2=0.2)
    assert math.isfinite(kind.set_term_at(0.1, ok))
    for gamma in (1.0, 0.8):  # b = 1/2 and b > 1/2
        with pytest.raises(ConstraintViolatedError):
            kind.set_term_at(0.1, lc.LiftParams(c3=2.0, gamma=gamma, nu1=0.4, nu2=0.2))
    assert kind.set_term_at(0.1, lc.LiftParams(c3=0.5, gamma=1.0, nu1=-0.1, nu2=0.2)) == math.inf


def test_rebound_margins_and_direct_minima_are_reached(monkeypatch):
    # profilers and tracers rebind these module attributes; a LiftedKind
    # holding a reference taken at import time would bypass the rebinding
    from l1lab import thresholds_general as tg
    from l1lab import thresholds_nonneg as tn

    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(module, name, counted)

    for name in ("sectional_margin_direct", "sectional_margin_lifted",
                 "strong_margin_direct", "strong_margin_lifted",
                 "sectional_direct_minimum", "strong_direct_minimum"):
        count(tg, name)
    for name in ("strong_nonneg_margin_direct", "strong_nonneg_margin_lifted",
                 "strong_nonneg_direct_minimum"):
        count(tn, name)

    for kind in ("sectional", "strong", "strong_nonneg"):
        lc.threshold_bisect(0.5, kind, "direct")
        margin, _ = lc._margin_provider(kind, "lifted")(0.5, 0.02)
        assert margin < 0
    assert all(calls.values()), calls


# ---------------------------------------------------------------------------
# the lifted search on the real kinds: every step is a closed-form certificate
# ---------------------------------------------------------------------------

LIFTED_MARGINS = (("thresholds_general", "sectional_margin_lifted"),
                  ("thresholds_general", "strong_margin_lifted"),
                  ("thresholds_nonneg", "strong_nonneg_margin_lifted"))


def closed_total(spec, params, alpha, beta):
    """The master-condition total at explicit lift parameters, in the
    optimizer's order of operations."""
    return -0.5 * params.c3 + spec.set_term_at(beta, params) + lc.i_sph(params.c3, alpha)


@pytest.fixture(scope="module")
def lifted_solves():
    """(kind, alpha) -> (result, [(beta, warm, margin), ...]) for the three
    lifted kinds at alpha 0.1, 0.5 and 0.999."""
    import importlib

    probes = []
    with pytest.MonkeyPatch.context() as mp:
        for module_name, attr in LIFTED_MARGINS:
            module = importlib.import_module(f"l1lab.{module_name}")

            def recording(alpha, beta, warm=None, _fn=getattr(module, attr)):
                margin, params = _fn(alpha, beta, warm)
                probes.append((beta, warm, margin))
                return margin, params

            mp.setattr(module, attr, recording)
        solves = {}
        for kind in lc.lifted_kinds():
            for alpha in (0.1, 0.5, 0.999):
                probes.clear()
                solves[kind, alpha] = lc.threshold_bisect(alpha, kind, "lifted"), list(probes)
    return solves


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_lifted_quick_probes_land_on_certified_betas(lifted_solves, kind):
    # every probe after the floor except the last lands where the previous
    # optimum certifies it; the last, tol_beta above the result, ends the
    # search as the one infeasible probe
    spec = lc.lifted_kinds()[kind]
    eps = DEFAULT.feasibility_margin
    for alpha in (0.1, 0.5, 0.999):
        r, probes = lifted_solves[kind, alpha]
        assert probes[0][:2] == (lc.BETA_FLOOR, lc.floor_start(spec, lc.BETA_FLOOR))
        assert len(probes) >= 3
        # the totals are differences of terms up to ~150 (nu2 (2 beta - 1)
        # at small beta), whose doubles lie 2.8e-14 apart; eps is 1e-9
        for beta, warm, margin in probes[1:-1]:
            assert closed_total(spec, warm, alpha, beta) <= -2.0 * eps + 1e-13
            assert margin < -eps
        beta, warm, margin = probes[-1]
        assert beta == r.beta + DEFAULT.tol_beta and warm == r.params_at_optimum
        assert not margin < -eps


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999])
def test_reported_beta_is_certified_by_two_routes(lifted_solves, kind, alpha):
    spec = lc.lifted_kinds()[kind]
    r, _ = lifted_solves[kind, alpha]
    p = r.params_at_optimum
    assert closed_total(spec, p, alpha, r.beta) == r.condition_margin
    oracle = (lc.exp_set_term_oracle(spec.integrand, p, r.beta)
              + lc.i_sph(p.c3, alpha) - 0.5 * p.c3)
    assert oracle < -DEFAULT.feasibility_margin


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_warm_lifted_probe_never_ends_above_its_start(lifted_solves, kind):
    # one Nelder-Mead run from p returns at most the closed-form total at p,
    # which is what lets a warm probe carry the certificate of p
    spec = lc.lifted_kinds()[kind]
    margin_fn = lc._margin_provider(kind, "lifted")
    r, _ = lifted_solves[kind, 0.5]
    starts = [(r.params_at_optimum, beta) for beta in (r.beta - 0.01, r.beta + 0.001)]
    starts.append((lc.LiftParams(c3=0.5, gamma=1.0, nu1=0.4, nu2=0.2), 0.05))
    for p, beta in starts:
        margin, _ = margin_fn(0.5, beta, p)
        assert margin <= closed_total(spec, p, 0.5, beta) + 1e-13


def test_cold_lifted_probe_walks_past_the_small_c3_stall():
    # a single start at c3 = 1e-3 stalls at small c3 here with a margin near
    # +4.7e-4; walking the certificate steps up to beta reaches the optimum
    # at c3 ~ 52
    from l1lab.thresholds_nonneg import strong_nonneg_margin_lifted

    margin, params = strong_nonneg_margin_lifted(0.999, 0.4694)
    assert margin < -DEFAULT.feasibility_margin
    assert params.c3 > 1.0


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999])
def test_cold_margin_at_the_reported_beta_is_the_search_result(lifted_solves, kind, alpha):
    # a cold margin walks the search's own steps, so at the reported beta it
    # ends on the same probe
    r, _ = lifted_solves[kind, alpha]
    margin, params = lc.lifted_margin(lc.lifted_kinds()[kind], alpha, r.beta)
    assert margin == r.condition_margin and params == r.params_at_optimum


def test_cold_margin_below_the_floor_is_one_probe_at_beta():
    # the search raises ThresholdRangeError at this alpha: its floor probe
    # has a margin near +6.7e-3, so a walk must not start there
    spec = lc.lifted_kinds()["strong"]
    cold = lc.lifted_margin(spec, 0.003, 5e-5)
    assert cold[0] < -DEFAULT.feasibility_margin
    assert cold == lc.lifted_margin(spec, 0.003, 5e-5, lc.floor_start(spec, 5e-5))


def test_cold_margin_outside_the_kind_range_raises():
    # nonnegative strong sets need beta < 1/2; the walk alone would stop
    # short and return the margin of a warm run at this beta
    with pytest.raises(DomainError):
        lc.lifted_margin(lc.lifted_kinds()["strong_nonneg"], 0.999, 0.55)


def test_cold_margin_past_the_threshold_ends_with_a_warm_run_at_beta():
    spec = lc.lifted_kinds()["sectional"]
    eps, tol = DEFAULT.feasibility_margin, DEFAULT.tol_beta
    lo, _, p = lc.walk(functools.partial(lc.lifted_margin, spec), spec, 0.5, 0.11, eps, tol)
    assert lo < 0.11
    cold = lc.lifted_margin(spec, 0.5, 0.11)
    assert cold == lc.lifted_margin(spec, 0.5, 0.11, p) and cold[0] > 0
