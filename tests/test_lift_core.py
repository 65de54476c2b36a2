"""Sphere term, master condition, set-term oracle, threshold bisection."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from l1lab import lift_core as lc
from l1lab.config import DEFAULT, Config
from l1lab.errors import ConstraintViolatedError, DomainError, NonMonotoneWarning


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

def stub_margins(monkeypatch, quick, thorough=None):
    """Replace every kind's margin by feasible(beta) -> -1 / +1 stubs and
    record each probe as (beta, thorough)."""
    probes = []

    def margin(alpha, beta, warm, is_thorough, config=DEFAULT):
        probes.append((beta, is_thorough))
        rule = thorough if (is_thorough and thorough is not None) else quick
        return (-1.0 if rule(beta) else 1.0), None

    monkeypatch.setattr(lc, "_margin_provider", lambda kind, method: margin)
    return probes


def test_bisect_restarts_when_a_thorough_reprobe_flips(monkeypatch):
    # the quick search misjudges one probe (just above 0.25) as infeasible;
    # the true threshold is 0.3
    probes = stub_margins(monkeypatch,
                          quick=lambda b: b < 0.3 and not 0.25 < b < 0.2501,
                          thorough=lambda b: b < 0.3)
    with pytest.warns(NonMonotoneWarning, match="restarting bisection"):
        r = lc.threshold_bisect(0.5, "sectional", "lifted")
    assert 0.3 - 2e-5 <= r.beta < 0.3
    assert any(0.25 < b < 0.2501 and not t for b, t in probes)


def test_bisect_floor_infeasible_raises_range_error(monkeypatch):
    probes = stub_margins(monkeypatch, quick=lambda b: False)
    with pytest.raises(lc.ThresholdRangeError, match="bisection floor"):
        lc.threshold_bisect(0.5, "strong", "lifted")
    # the quick floor probe is confirmed by a thorough one before giving up
    assert probes == [(lc.BETA_FLOOR, False), (lc.BETA_FLOOR, True)]


def test_bisect_whole_range_feasible_returns_the_cap(monkeypatch):
    probes = stub_margins(monkeypatch, quick=lambda b: True)
    r = lc.threshold_bisect(0.5, "strong_nonneg", "lifted")
    cap = lc._BETA_CAPS["strong_nonneg"]
    assert r.beta == cap and r.condition_margin == -1.0
    assert probes[-1] == (cap, True)


def test_config_reaches_the_lifted_margin(monkeypatch):
    from l1lab import thresholds_general as tg

    seen = []

    class Stop(Exception):
        pass

    def recording_margin(*args, config=DEFAULT):
        seen.append(config)
        raise Stop

    monkeypatch.setattr(tg, "lifted_margin", recording_margin)
    custom = Config(feasibility_margin=1e-6)
    with pytest.raises(Stop):
        lc.threshold_bisect(0.5, "sectional", "lifted", config=custom)
    assert seen == [custom]


# ---------------------------------------------------------------------------
# the shared lifted route (one LiftedKind per kind)
# ---------------------------------------------------------------------------

def _lifted_kinds():
    from l1lab import thresholds_general as tg
    from l1lab import thresholds_nonneg as tn

    return {"sectional": tg.SECTIONAL, "strong": tg.STRONG,
            "strong_nonneg": tn.STRONG_NONNEG}


@pytest.mark.parametrize("name", ["sectional", "strong", "strong_nonneg"])
def test_first_ladder_seed_carries_the_direct_optimum(name):
    kind = _lifted_kinds()[name]
    alpha, beta = 0.5, 0.05
    _, direct = lc.direct_margin(kind, alpha, beta)
    assert direct.c3 == 0.0 and direct.gamma > 1e-6
    c3 = lc.c3_start_ladder(alpha)[0]
    seed = lc.lifted_seeds(kind, alpha, beta, None)[0]
    assert len(seed) == 2 + kind.n_extra
    assert seed[0] == math.log(c3)
    assert seed[1] == min(max(c3 / (4.0 * direct.gamma), 1e-6), 0.49)
    assert seed[2] == direct.nu1
    if kind.nu2 is None:
        assert direct.nu2 == 0.0
    else:
        assert seed[3] == min(direct.nu2, 400.0)


@pytest.mark.parametrize("name", ["sectional", "strong", "strong_nonneg"])
def test_set_term_at_checks_the_convergence_constraint(name):
    kind = _lifted_kinds()[name]
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
        margin, _ = lc._margin_provider(kind, "lifted")(0.5, 0.02, None, False)
        assert margin < 0
    assert all(calls.values()), calls
