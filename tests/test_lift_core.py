"""Sphere term, lifted total, set-term oracle, threshold search."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from l1lab import lift_core as lc
from l1lab.config import DEFAULT, Config
from l1lab.errors import ConstraintViolatedError, DomainError, NonConvergentError
from l1lab.reference_values import TABLE_ALPHAS_HIGH, TABLE_ALPHAS_LOW

KINDS = tuple(lc.kind_table())
LIFTED_KINDS = tuple(name for name, kind in lc.kind_table().items() if kind.lifted)


def lifted_spec(name):
    """The LiftedKind of a lifted kind."""
    return lc.kind_table()[name].lifted


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
        lc.i_sph(0.0, 0.49)
    # the c3 -> 0 limit: gamma_hat -> -sqrt(alpha)/2 and i_sph -> -sqrt(alpha)
    assert lc.sphere_gamma_hat(0.0, 0.49) == pytest.approx(-0.35, abs=1e-15)
    assert lc.i_sph(1e-12, 0.49) == pytest.approx(-math.sqrt(0.49), abs=1e-11)


def test_master_condition_continuity_in_c3():
    grid = np.linspace(1e-3, 2.0, 400)
    prev = None
    for c3 in grid:
        params = lc.LiftParams(c3=c3, gamma=max(c3 / (4 * 0.3), 0.5), nu1=1.0)
        total = lc.lifted_total(lifted_spec("sectional"), params, 0.5, 0.1)
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
    with pytest.raises(ConstraintViolatedError):  # b itself divides by zero
        lc.LiftParams(c3=1.0, gamma=0.0).require_convergent()


def test_exp_set_term_oracle_constant_exponent():
    kappa = 0.7

    def integrand(params, beta):
        return 0.0, (lc.ExpPiece(weight=1.0,
                                 t=lambda h: np.full_like(h, kappa),
                                 breakpoints=()),)

    params = lc.LiftParams(c3=0.8, gamma=1.0)
    val = lc.exp_set_term_oracle(integrand, params, beta=0.3)
    assert abs(val - kappa) <= 1e-10


def test_exp_set_term_oracle_rejects_invalid_b():
    def integrand(params, beta):
        return 0.0, ()

    with pytest.raises(ConstraintViolatedError):
        lc.exp_set_term_oracle(integrand, lc.LiftParams(c3=2.0, gamma=0.5), 0.3)


@pytest.mark.parametrize("name", LIFTED_KINDS)
@pytest.mark.parametrize("c3", [0.0, -1.0, math.nan, math.inf])
def test_lift_params_need_a_positive_finite_c3(name, c3):
    # c3 = 0 is the direct bound, the limit of the lifted family but not a
    # member of it: a direct result's params are refused, not divided by 0
    kind = lifted_spec(name)
    params = lc.LiftParams(c3=c3, gamma=1.0, nu1=0.4, nu2=0.2)
    for evaluate in (lambda: kind.set_term_at(0.1, params),
                     lambda: lc.lifted_total(kind, params, 0.5, 0.1),
                     lambda: lc.exp_set_term_oracle(kind.integrand, params, 0.1)):
        with pytest.raises(ConstraintViolatedError, match="0 < c3 < inf"):
            evaluate()


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


def test_threshold_sectional_direct_table_point():
    r = lc.threshold_bisect(0.3, "sectional", "direct")
    assert abs(r.beta - 0.0481) <= 5e-4
    assert r.condition_margin < 0
    # two tol_beta steps up must be infeasible
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


@pytest.mark.parametrize("kind", ["weak", "weak_nonneg"])
def test_weak_kind_asked_for_lifted_runs_and_reports_direct(kind):
    # a weak kind has one route, its exact boundary
    direct = lc.threshold_bisect(0.5, kind, "direct")
    assert direct.method == "direct"
    assert lc.threshold_bisect(0.5, kind, "lifted") == direct


def test_lifting_dominance_spot():
    # the direct bound is the c3 -> 0 member of the lifted family
    for alpha in (0.25, 0.6):
        direct = lc.threshold_bisect(alpha, "sectional", "direct")
        lifted = lc.threshold_bisect(alpha, "sectional", "lifted")
        assert lifted.beta >= direct.beta - 1e-5
        p = lifted.params_at_optimum
        assert all(type(v) is float for v in dataclasses.astuple(p))


# ---------------------------------------------------------------------------
# the lifted objective on Python floats: overflow and domain edges give inf
# ---------------------------------------------------------------------------

_, (B_MIN, B_MAX), _, (_, NU2_MAX) = lc.SEARCH_BOX
MU_MAX = lc.C3_MAX * NU2_MAX


# x = [b, nu1, mu] with mu = c3 nu2, the search coordinates of a lifted probe
@pytest.mark.parametrize("kind, x", [
    # mu >= 700: the flat branch exp(mu) saturates
    ("strong", [0.3, 1.0, 800.0]),
    ("strong_nonneg", [0.3, 1.0, 800.0]),
    # b = B_MAX: the completed-square exponent saturates
    ("sectional", [B_MAX, 1.0]),
    ("strong", [B_MAX, 1.0, 400.0]),
    ("strong_nonneg", [B_MAX, 1.0, 400.0]),
    # nu1 = 0 < nu2 (strong regime 1, crossing at infinity): inf * erf(0) is NaN
    ("strong", [0.3, 0.0, 800.0]),
    # entry point nu1 - sqrt(2 mu / b) near -1.8e6
    ("strong_nonneg", [B_MIN, 0.0, MU_MAX]),
    # negative multipliers
    ("sectional", [0.3, -1e-3]),
    ("strong", [0.3, 1.0, -1e-3]),
    ("strong_nonneg", [0.3, -1e-3, 1.0]),
])
def test_lifted_objective_edges_return_inf(kind, x):
    for alpha, beta in [(0.5, 0.1), (0.999, 0.45)]:
        val, _, _ = lc._profile_objective(lifted_spec(kind), alpha, beta, 1.0)(x)
        assert type(val) is float and val == math.inf


def test_lifted_objective_finite_far_from_the_edges():
    # a very negative entry point (about -2.8e3) whose left tail underflows
    profile = lc._profile_objective(lifted_spec("strong_nonneg"), 0.5, 0.1, 1e-3)
    val, _, c3 = profile([B_MIN, 0.0, 1e-3 * NU2_MAX])
    assert type(val) is float and math.isfinite(val)
    assert 1e-3 <= c3 <= lc.C3_MAX  # mu / c3 stays within NU2_MAX


def test_clipped_params_are_plain_floats():
    c3 = np.exp(np.float64(0.3))
    p = lc.LiftParams(c3=c3, gamma=c3, nu1=np.float64(1.5), nu2=np.float64(2.0)).clipped()
    assert all(type(v) is float for v in dataclasses.astuple(p))
    assert p.b == pytest.approx(0.25, rel=1e-15)
    # each of c3, b, nu1 and nu2 goes to the nearer end of SEARCH_BOX
    (c3_lo, c3_hi), (b_lo, b_hi), (nu1_lo, nu1_hi), (nu2_lo, nu2_hi) = lc.SEARCH_BOX
    high = lc.LiftParams(c3=1e3, gamma=1.0, nu1=20.0, nu2=1e3).clipped()
    assert (high.c3, high.nu1, high.nu2) == (c3_hi, nu1_hi, nu2_hi)
    assert high.b == pytest.approx(b_hi, rel=1e-15)
    low = lc.LiftParams(c3=0.0, gamma=1.0, nu1=-1.0, nu2=-1.0).clipped()
    assert (low.c3, low.nu1, low.nu2) == (c3_lo, nu1_lo, nu2_lo)
    assert low.b == pytest.approx(b_lo, rel=1e-15)


# ---------------------------------------------------------------------------
# rarely taken branches of threshold_bisect, driven by stub margins
# ---------------------------------------------------------------------------

def stub_table(monkeypatch, margin, spec=None):
    """Give every kind of the kind table `margin` for both methods, and
    every lifted kind the LiftedKind `spec` when one is given."""
    table = lc.kind_table()
    for name, kind in table.items():
        lifted = kind.lifted if spec is None or kind.lifted is None else spec
        monkeypatch.setitem(table, name, dataclasses.replace(
            kind, lifted=lifted, margins=dict.fromkeys(lc.METHODS, margin)))


def stub_margins(monkeypatch, feasible, above=1.0):
    """Replace every kind's margin by feasible(beta) -> -1 / `above` stubs
    and record each probe as (beta, warm)."""
    probes = []

    def margin(alpha, beta, warm=None):
        probes.append((beta, warm))
        return (-1.0 if feasible(beta) else above), None

    stub_table(monkeypatch, margin)
    return probes


def stub_lifted(monkeypatch, root, slope=1.0):
    """Replace every lifted kind by a stub whose set term at params p is
    slope * beta - p.nu1, and every margin by slope * beta - root(beta);
    a warm start at p caps the margin at the total p certifies, as a
    minimization started there would.  Records each probe as (beta, warm)."""
    probes = []

    class Stub(lc.LiftedKind):
        def set_term_at(self, beta, params):
            return slope * beta - params.nu1

    spec = Stub(k_term=None, integrand=None, direct=lambda beta: (1.0, 0.0))

    def margin(alpha, beta, warm=None):
        probes.append((beta, warm))
        m = slope * beta - root(beta)
        if warm is not None:
            m = min(m, spec.set_term_at(beta, warm))
        return m, lc.LiftParams(c3=1.0, gamma=1.0, nu1=slope * beta - m)

    stub_table(monkeypatch, margin, spec)
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
    cap = lc.kind_table()["strong_nonneg"].cap
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
    cap = lc.kind_table()["strong_nonneg"].cap
    assert r.beta == cap and r.condition_margin == -1.0
    assert [b for b, _ in probes] == [lc.BETA_FLOOR, cap]


def test_direct_root_probe_past_the_jump_steps_down_half_tol_beta(monkeypatch):
    # with the infeasible margin the smaller in size, the root solve ends on
    # the infeasible side of the jump at 0.3; the probe tol_beta/2 below it
    # is reported
    tol = DEFAULT.tol_beta
    probes = stub_margins(monkeypatch, feasible=lambda b: b < 0.3, above=1e-3)
    r = lc.threshold_bisect(0.5, "sectional", "direct")
    betas = [b for b, _ in probes]
    assert betas[:2] == [lc.BETA_FLOOR, lc.kind_table()["sectional"].cap]
    root = betas[-2]
    assert 0.3 <= root <= 0.3 + tol / 4
    assert r.beta == betas[-1] == root - tol / 2 and r.condition_margin == -1.0


def test_direct_root_route_raises_when_the_step_down_is_infeasible(monkeypatch):
    # the same solve with an infeasible point only where the step down lands
    probes = stub_margins(monkeypatch, feasible=lambda b: b < 0.3, above=1e-3)
    lc.threshold_bisect(0.5, "sectional", "direct")
    step = probes[-1][0]
    assert all(abs(b - step) > 1e-9 for b, _ in probes[:-1])
    stub_margins(monkeypatch, feasible=lambda b: b < 0.3 and abs(b - step) > 1e-9, above=1e-3)
    with pytest.raises(NonConvergentError, match="no feasible beta"):
        lc.threshold_bisect(0.5, "sectional", "direct")


def test_direct_floor_within_two_eps_of_the_boundary_is_reported(monkeypatch):
    # the margin is -1.5 eps at the floor, so the residual (margin + 2 eps)
    # has no sign change; the floor itself is the threshold to tol_beta
    eps = DEFAULT.feasibility_margin
    probes = []

    def margin(alpha, beta, warm=None):
        probes.append(beta)
        return beta - lc.BETA_FLOOR - 1.5 * eps, None

    stub_table(monkeypatch, margin)
    r = lc.threshold_bisect(0.5, "strong", "direct")
    assert r.beta == lc.BETA_FLOOR and r.condition_margin == -1.5 * eps
    assert probes[-1] == lc.BETA_FLOOR


CONTRACT_ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99,
                   0.999, 0.9999)


@pytest.mark.parametrize("tol", [None, 1e-3], ids=["default-tol", "tol-1e-3"])
@pytest.mark.parametrize("kind", KINDS)
def test_direct_root_route_reports_beta_to_tol_beta(kind, tol):
    # the reported beta is feasible and beta + tol_beta is not (or is past
    # the cap), so tol_beta binds the direct and weak kinds
    eps = DEFAULT.feasibility_margin
    config = DEFAULT if tol is None else Config(tol_beta=tol)
    step = config.tol_beta
    margin_fn = lc.kind_table()[kind].margins["direct"]
    cap = lc.kind_table()[kind].cap
    for alpha in CONTRACT_ALPHAS:
        r = lc.threshold_bisect(alpha, kind, "direct", config=config)
        assert r.condition_margin < -eps
        assert margin_fn(alpha, r.beta)[0] == r.condition_margin
        assert r.beta < cap
        up = min(r.beta + step, cap)
        assert not margin_fn(alpha, up)[0] < -eps, (alpha, r.beta)


def test_threshold_cli_tol_reaches_the_root_route(capsys, monkeypatch):
    from l1lab import cli

    eps = DEFAULT.feasibility_margin
    seen = []

    def recording(alpha, kind, method="lifted", config=DEFAULT):
        seen.append(config.tol_beta)
        return lc.threshold_bisect(alpha, kind, method, config)

    monkeypatch.setattr(cli, "threshold_bisect", recording)
    for flag in ("sectional", "weak-nonneg"):
        kind = flag.replace("-", "_")
        assert cli.main(["threshold", "--alpha", "0.5", "--kind", flag, "--method", "direct",
                         "--tol", "1e-3", "--out", "json"]) == 0
        row = json.loads(capsys.readouterr().out)
        r = lc.threshold_bisect(0.5, kind, "direct", config=Config(tol_beta=1e-3))
        assert row["beta"] == float(cli.fmt(r.beta))
        margin_fn = lc.kind_table()[kind].margins["direct"]
        assert margin_fn(0.5, r.beta)[0] < -eps <= margin_fn(0.5, r.beta + 1e-3)[0]
    assert seen == [1e-3, 1e-3]


@pytest.mark.parametrize("kind", ["weak", "weak_nonneg"])
def test_weak_residual_changes_sign_once_below_alpha(kind):
    # the weak root solve needs the characterization at alpha - 2 eps to be
    # positive, then negative, on [BETA_FLOOR, alpha - 2 eps]; it is
    # negative from the floor on exactly where the floor probe is infeasible
    from l1lab.thresholds_general import weak_characterization
    from l1lab.thresholds_nonneg import weak_nonneg_characterization

    wc = weak_characterization if kind == "weak" else weak_nonneg_characterization
    eps = DEFAULT.feasibility_margin
    below_floor = 0
    for alpha in np.arange(1, 1000).tolist():
        alpha /= 1000.0
        a = alpha - 2.0 * eps
        grid = sorted({*np.geomspace(lc.BETA_FLOOR, a, 120).tolist(),
                       *np.linspace(lc.BETA_FLOOR, a, 120).tolist()})
        signs = [wc(a, b) > 0 for b in grid]
        changes = sum(x != y for x, y in zip(signs, signs[1:]))
        assert not signs[-1] and changes == signs[0], (alpha, changes)
        if not signs[0]:
            below_floor += 1
            with pytest.raises(lc.ThresholdRangeError):
                lc.threshold_bisect(alpha, kind, "direct")
    assert below_floor >= 1


# ---------------------------------------------------------------------------
# the shared lifted route (one LiftedKind per kind)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sectional", "strong", "strong_nonneg"])
def test_floor_start_carries_the_direct_optimum(name, monkeypatch):
    kind = lifted_spec(name)
    alpha, beta = 0.5, lc.BETA_FLOOR
    _, direct = lc.direct_margin(kind, alpha, beta)
    assert direct.c3 == 0.0 and direct.gamma > 1e-6
    lifted = lc.floor_start(kind, beta)
    assert (lifted.nu1, lifted.nu2) == (direct.nu1, direct.nu2)
    start = lifted.clipped()
    expected = [1e-3, min(max(1e-3 / (4.0 * direct.gamma), 1e-6), 0.49), direct.nu1]
    if kind.nu2 is None:
        assert direct.nu2 == 0.0
    else:
        expected.append(min(direct.nu2, NU2_MAX))
    assert [start.c3, start.b, start.nu1, start.nu2][:2 + kind.n_extra] == expected
    # the lifted search's floor probe is warm-started there
    probes = stub_margins(monkeypatch, feasible=lambda b: False)
    with pytest.raises(lc.ThresholdRangeError):
        lc.threshold_bisect(alpha, name, "lifted")
    [(floor, warm)] = probes
    assert floor == beta and warm == lc.floor_start(kind, beta)


@pytest.mark.parametrize("name", ["sectional", "strong", "strong_nonneg"])
def test_set_term_at_checks_the_convergence_constraint(name):
    kind = lifted_spec(name)
    ok = lc.LiftParams(c3=0.5, gamma=1.0, nu1=0.4, nu2=0.2)
    assert math.isfinite(kind.set_term_at(0.1, ok))
    for gamma in (1.0, 0.8):  # b = 1/2 and b > 1/2
        with pytest.raises(ConstraintViolatedError):
            kind.set_term_at(0.1, lc.LiftParams(c3=2.0, gamma=gamma, nu1=0.4, nu2=0.2))
    assert kind.set_term_at(0.1, lc.LiftParams(c3=0.5, gamma=1.0, nu1=-0.1, nu2=0.2)) == math.inf


def test_rebound_margins_and_direct_minima_are_reached(monkeypatch):
    # profilers and tracers rebind these module attributes; a kind table or
    # a LiftedKind holding a reference taken at import time would bypass the
    # rebinding
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
                 "sectional_direct_minimum", "strong_direct_minimum",
                 "sectional_exp_moments", "strong_exp_moment", "weak_alpha_of_beta"):
        count(tg, name)
    for name in ("strong_nonneg_margin_direct", "strong_nonneg_margin_lifted",
                 "strong_nonneg_direct_minimum", "nonneg_exp_moment",
                 "weak_nonneg_alpha_of_beta"):
        count(tn, name)

    for kind in ("weak", "weak_nonneg"):
        lc.threshold_bisect(0.5, kind, "direct")
    for kind in LIFTED_KINDS:
        lc.threshold_bisect(0.5, kind, "direct")
        margin, _ = lc.kind_table()[kind].margins["lifted"](0.5, 0.02)
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


TABLE_ALPHAS = TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH


@pytest.fixture(scope="module")
def lifted_solves():
    """(kind, alpha) -> (result, [(beta, warm, margin), ...]) for the three
    lifted kinds at the 15 table alphas."""
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
        for kind in LIFTED_KINDS:
            for alpha in TABLE_ALPHAS:
                probes.clear()
                solves[kind, alpha] = lc.threshold_bisect(alpha, kind, "lifted"), list(probes)
    return solves


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_lifted_quick_probes_land_on_certified_betas(lifted_solves, kind):
    # every probe after the floor except the last lands where the previous
    # optimum certifies it; the last, tol_beta above the result, ends the
    # search as the one infeasible probe
    spec = lifted_spec(kind)
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
@pytest.mark.parametrize("alpha", TABLE_ALPHAS)
def test_reported_beta_is_certified_by_two_routes(lifted_solves, kind, alpha):
    spec = lifted_spec(kind)
    r, _ = lifted_solves[kind, alpha]
    p = r.params_at_optimum
    assert closed_total(spec, p, alpha, r.beta) == r.condition_margin
    oracle = (lc.exp_set_term_oracle(spec.integrand, p, r.beta)
              + lc.i_sph(p.c3, alpha) - 0.5 * p.c3)
    assert oracle < -DEFAULT.feasibility_margin


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_warm_lifted_probe_never_ends_above_its_start(lifted_solves, kind):
    # one search from p returns at most the closed-form total at p,
    # which is what lets a warm probe carry the certificate of p
    spec = lifted_spec(kind)
    margin_fn = lc.kind_table()[kind].margins["lifted"]
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
    margin, params = lc.lifted_margin(lifted_spec(kind), alpha, r.beta)
    assert margin == r.condition_margin and params == r.params_at_optimum


def test_cold_margin_below_the_floor_is_one_probe_at_beta():
    # the search raises ThresholdRangeError at this alpha: its floor probe
    # has a margin near +6.7e-3, so a walk must not start there
    spec = lifted_spec("strong")
    cold = lc.lifted_margin(spec, 0.003, 5e-5)
    assert cold[0] < -DEFAULT.feasibility_margin
    assert cold == lc.lifted_margin(spec, 0.003, 5e-5, lc.floor_start(spec, 5e-5))


def test_cold_margin_outside_the_kind_range_raises():
    # nonnegative strong sets need beta < 1/2; the walk alone would stop
    # short and return the margin of a warm run at this beta
    with pytest.raises(DomainError):
        lc.lifted_margin(lifted_spec("strong_nonneg"), 0.999, 0.55)


def test_cold_margin_past_the_threshold_ends_with_a_warm_run_at_beta():
    spec = lifted_spec("sectional")
    eps, tol = DEFAULT.feasibility_margin, DEFAULT.tol_beta
    lo, _, p = lc.walk(functools.partial(lc.lifted_margin, spec), spec, 0.5, 0.11, eps, tol)
    assert lo < 0.11
    cold = lc.lifted_margin(spec, 0.5, 0.11)
    assert cold == lc.lifted_margin(spec, 0.5, 0.11, p) and cold[0] > 0


# ---------------------------------------------------------------------------
# non-finite sphere arguments are refused
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: lc.sphere_gamma_hat(math.nan, 0.5),
    lambda: lc.sphere_gamma_hat(1.0, math.inf),
    lambda: lc.sphere_gamma_hat(math.inf, 0.5),
    lambda: lc.i_sph(1.0, math.nan),
    lambda: lc.i_sph(math.inf, 0.5),
    lambda: lc.i_sph(math.nan, 0.5),  # the sphere term of every lifted total
], ids=["c3-nan", "alpha-inf", "c3-inf", "alpha-nan", "i_sph-c3-inf", "master-c3-nan"])
def test_sphere_functions_refuse_non_finite_arguments(call):
    with pytest.raises(DomainError):
        call()


# ---------------------------------------------------------------------------
# c3 solved inside each lifted probe: I_set = gamma + K(b, nu1[, mu], beta)/c3
# ---------------------------------------------------------------------------

def _old_strong_moment(c3, gamma, nu1, nu2):
    """E exp(c3 t) of the strong exponent in the (c3, gamma, nu1, nu2) form
    the library used before the moments took (b, nu1, mu = c3 nu2)."""
    from l1lab import numerics as nm

    b = c3 / (4.0 * gamma)
    if b >= 0.5:
        return math.inf
    gq = nm.gaussian_quadratic_integral
    s_grow, c_grow = 2.0 * b * nu1, b * nu1 * nu1 - c3 * nu2
    s_dec, c_dec = -2.0 * b * nu1, b * nu1 * nu1 + c3 * nu2
    flat = math.exp(c3 * nu2) if c3 * nu2 < 700 else math.inf
    if nu1 * nu1 < 2.0 * gamma * nu2:
        cross = 2.0 * gamma * nu2 / nu1 if nu1 > 0 else math.inf
        val = (flat * 0.5 * float(nm.erf(nu1 / nm.SQRT2))
               + gq(b, s_dec, c_dec, nu1, cross) + gq(b, s_grow, c_grow, cross, math.inf))
    elif nu1 * nu1 < 8.0 * gamma * nu2:
        start = math.sqrt(8.0 * gamma * nu2) - nu1
        val = (flat * 0.5 * float(nm.erf(start / nm.SQRT2))
               + gq(b, s_grow, c_grow, start, math.inf))
    else:
        val = gq(b, s_grow, c_grow, 0.0, math.inf)
    return 2.0 * val


def _old_nonneg_moment(c3, gamma, nu1, nu2):
    """E exp(c3 t_plus) in the old (c3, gamma, nu1, nu2) form."""
    from l1lab import numerics as nm

    p = c3 / (4.0 * gamma)
    if p >= 0.5:
        return math.inf
    gq = nm.gaussian_quadratic_integral
    cdf = lambda x: 0.5 * (1.0 + float(nm.erf(x / nm.SQRT2)))  # noqa: E731
    s_lin = -2.0 * p * nu1
    entry = nu1 - math.sqrt(8.0 * gamma * nu2)
    flat = math.exp(c3 * nu2) if c3 * nu2 < 700 else math.inf
    return (gq(p, s_lin, p * nu1 * nu1 - c3 * nu2, -math.inf, entry)
            + flat * (cdf(nu1) - cdf(entry))
            + gq(p, s_lin, p * nu1 * nu1 + c3 * nu2, nu1, math.inf))


def _old_set_term(kind, params, beta):
    """The closed-form set term in its old c3 form, on the old moments."""
    from l1lab import thresholds_general as tg

    c3, gamma, nu1, nu2 = params.c3, params.gamma, params.nu1, params.nu2
    if kind == "sectional":
        (plus, minus), _ = tg.sectional_exp_moments(params.b, nu1)
        if not (0 < plus < math.inf and 0 < minus < math.inf):
            return math.inf
        return gamma + beta / c3 * math.log(plus) + (1.0 - beta) / c3 * math.log(minus)
    old = _old_strong_moment if kind == "strong" else _old_nonneg_moment
    moment = old(c3, gamma, nu1, nu2)
    if not (math.isfinite(moment) and moment > 0):
        return math.inf
    return nu2 * (2.0 * beta - 1.0) + gamma + math.log(moment) / c3


@pytest.mark.parametrize("kind", LIFTED_KINDS)
def test_c3_free_set_term_equals_the_old_c3_form(kind):
    # gamma + K/c3 against the old form on draws of the audit's sampler
    # until 200 are finite; both are inf on the same draws
    from l1lab.parity import sample_params

    spec = lifted_spec(kind)
    rng = np.random.default_rng(7)
    finite = 0
    while finite < 200:
        beta, p = sample_params(kind, rng)
        new, old = spec.set_term_at(beta, p), _old_set_term(kind, p, beta)
        if old == math.inf:
            assert new == math.inf
            continue
        finite += 1
        assert abs(new - old) <= 1e-12 * max(1.0, abs(old)), (beta, p, new, old)


@pytest.mark.parametrize("kind", ["strong", "strong_nonneg"])
def test_b_nu1_mu_moments_equal_the_old_moments(kind):
    from l1lab import thresholds_general as tg
    from l1lab import thresholds_nonneg as tn
    from l1lab.parity import sample_params

    new, old = ((tg.strong_exp_moment, _old_strong_moment) if kind == "strong"
                else (tn.nonneg_exp_moment, _old_nonneg_moment))
    rng = np.random.default_rng(8)
    compared = 0
    while compared < 200:
        _, p = sample_params(kind, rng)
        want = old(p.c3, p.gamma, p.nu1, p.nu2)
        got = new(p.b, p.nu1, p.c3 * p.nu2)[0]
        if not math.isfinite(want):
            assert not math.isfinite(got)
            continue
        compared += 1
        assert abs(got - want) <= 1e-14 * abs(want), (p, got, want)


def _phi(a, k, alpha, c3):
    return a * c3 + k / c3 + lc.i_sph(c3, alpha)


def _grid_minimum(a, k, alpha, lo, hi):
    grid = np.geomspace(lo, hi, 2000)
    vals = [_phi(a, k, alpha, float(c)) for c in grid]
    i = int(np.argmin(vals))
    return vals[i], float(grid[i]), grid


def _slope_root_k(a, alpha, c3):
    """The K whose minimum over c3 lies at c3: c3**2 phi'(c3) = 0 there."""
    g = lc.sphere_gamma_hat(c3, alpha)
    return a * c3 * c3 + g * c3 + 0.5 * alpha * math.log1p(-c3 / (2.0 * g))


def test_inner_c3_solve_matches_a_dense_log_grid():
    rng = np.random.default_rng(11)
    lo, hi = lc.C3_MIN, lc.C3_MAX
    ends = {"lo": 0, "hi": 0, "inside": 0}
    for _ in range(60):
        b = 0.5 - math.exp(rng.uniform(math.log(5e-7), math.log(0.5 - 1e-7)))
        a, alpha = 0.25 / b - 0.5, float(rng.uniform(0.001, 0.9999))
        # minima from below the bracket to past its top
        k = _slope_root_k(a, alpha, math.exp(rng.uniform(math.log(1e-5), math.log(4e3))))
        start = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        val, c3, _ = lc._c3_minimum(a, k, alpha, start, lo, hi)
        best, at, grid = _grid_minimum(a, k, alpha, lo, hi)
        assert val <= best + 1e-12 * max(1.0, abs(best))
        assert val == pytest.approx(_phi(a, k, alpha, c3), rel=1e-12, abs=1e-12)
        step = grid[1] / grid[0]
        assert at / step <= c3 <= at * step
        ends["lo" if c3 == lo else "hi" if c3 == hi else "inside"] += 1
    assert all(ends.values()), ends


def test_inner_c3_solve_binds_at_mu_over_nu2_max():
    # with mu = c3 nu2 the bracket starts at mu/400, so nu2 <= 400; a
    # minimum below that edge is reported on it
    a, alpha, mu = 0.25 / 0.3 - 0.5, 0.5, 2.0
    lo = mu / lc.NU2_MAX
    k = _slope_root_k(a, alpha, lo / 3.0)
    val, c3, _ = lc._c3_minimum(a, k, alpha, 1.0, lo, lc.C3_MAX)
    best, at, _ = _grid_minimum(a, k, alpha, lo, lc.C3_MAX)
    assert c3 == lo == at and val <= best + 1e-12
    # the same edge through a probe's objective: strong at beta = 1e-4
    spec = lifted_spec("strong")
    b, nu1, mu = 1e-4, 0.5, 0.5
    val, _, c3 = lc._profile_objective(spec, 0.5, 1e-4, 1.0)([b, nu1, mu])
    assert c3 == mu / lc.NU2_MAX
    best, _, _ = _grid_minimum(0.25 / b - 0.5, spec.k_term(b, (nu1, mu), 1e-4)[0], 0.5,
                               c3, lc.C3_MAX)
    assert math.isfinite(val) and val <= best + 1e-12


@pytest.mark.parametrize("kind", LIFTED_KINDS)
def test_reported_params_lie_in_the_search_box(lifted_solves, kind):
    (c3_lo, c3_hi), (b_lo, b_hi), (_, nu1_hi), (_, nu2_hi) = lc.SEARCH_BOX
    for alpha in TABLE_ALPHAS:
        p = lifted_solves[kind, alpha][0].params_at_optimum
        assert c3_lo <= p.c3 <= c3_hi, (alpha, p)
        assert b_lo <= p.b <= b_hi, (alpha, p)
        assert 0.0 <= p.nu1 <= nu1_hi and 0.0 <= p.nu2 <= nu2_hi, (alpha, p)


def test_probe_falls_back_to_its_start_when_the_end_is_worse(monkeypatch):
    # the guard behind "a probe never ends above its start": a search
    # ending on a worse point yields the (clipped) start and its total
    spec = lifted_spec("strong")
    start = lc.LiftParams(c3=0.5, gamma=1.0, nu1=0.4, nu2=0.2)
    worse = [0.45, 5.0, 30.0]
    monkeypatch.setattr(lc, "projected_bfgs", lambda fg, x0, *a, **k: (worse, fg(worse)))
    total, params = lc.minimize_lifted_total(spec, 0.5, 0.05, start)
    assert params == start and total == lc.lifted_total(spec, start, 0.5, 0.05)


def test_probe_from_an_infinite_floor_start_ends_feasible():
    # floor_start at beta = 1e-9 puts b at 0.49 with nu1 near 5.5, where the
    # sectional moments overflow; the probe halves b until the total is finite
    spec = lifted_spec("sectional")
    start = lc.floor_start(spec, 1e-9)
    assert lc.lifted_total(spec, start.clipped(), 0.1, 1e-9) == math.inf
    total, params = lc.minimize_lifted_total(spec, 0.1, 1e-9, start)
    assert math.isfinite(total) and total < -DEFAULT.feasibility_margin
    assert total == lc.lifted_total(spec, params, 0.1, 1e-9)


# ---------------------------------------------------------------------------
# analytic gradients of K and of the c3 profile
# ---------------------------------------------------------------------------

def fd_gradient(f, q, lower, steps):
    """Fourth-order differences of f at q: central, or forward where a
    central stencil would cross the lower end of q's domain."""
    grad = []
    for i, step in enumerate(steps):
        def at(k):
            x = list(q)
            x[i] += k * step
            return f(x)

        if q[i] - 2 * step < lower[i]:
            grad.append((-25 * at(0) + 48 * at(1) - 36 * at(2) + 16 * at(3) - 3 * at(4))
                        / (12 * step))
        else:
            grad.append((8 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12 * step))
    return grad


def fd_steps(q):
    """1e-3 of the scale of each coordinate: b's distance to 0 or 1/2, a
    multiplier's size but at least 1e-3."""
    return [1e-3 * min(q[0], 0.5 - q[0])] + [1e-3 * max(v, 1e-3) for v in q[1:]]


# q = [b, nu1(, mu)]: every regime of strong_exp_moment (nu1**2 below
# mu/(2b), between it and 2mu/b, above 2mu/b), b up to 0.4999, nu1 = 0
# and mu near or at 0.  The nonneg moment's plateau has width
# sqrt(2mu/b), so its mu-curvature grows as mu**-1/2 and differences
# resolve its slope only down to mu near 1e-4; the strong plateau is
# empty for small mu, which is smooth down to mu = 0.
GRADIENT_POINTS = {
    "sectional": [[0.1, 0.5], [0.3, 1.5], [0.45, 5.0], [0.4999, 0.3], [0.2, 0.0], [1e-6, 2.0]],
    "strong": [[0.3, 0.5, 1.0], [0.3, 1.5, 1.0], [0.3, 3.0, 1.0], [0.4999, 0.5, 0.3],
               [0.4999, 0.3, 0.01], [0.3, 0.0, 1.0], [0.3, 1.0, 1e-9], [0.3, 1.0, 0.0]],
    "strong_nonneg": [[0.3, 0.5, 1.0], [0.45, 2.0, 5.0], [0.4999, 0.1, 0.2],
                      [0.3, 0.0, 1.0], [0.3, 1.0, 1e-4]],
}


@pytest.mark.parametrize("kind", LIFTED_KINDS)
def test_k_gradient_matches_differences_of_the_closed_form(kind):
    spec = lifted_spec(kind)
    for beta in (0.01, 0.3):
        for q in GRADIENT_POINTS[kind]:
            k, grad = spec.k_term(q[0], q[1:], beta)
            assert math.isfinite(k)
            want = fd_gradient(lambda x: spec.k_term(x[0], x[1:], beta)[0], q,
                               [0.0] * len(q), fd_steps(q))
            assert grad == pytest.approx(want, rel=1e-6, abs=1e-9), (beta, q)


@pytest.mark.parametrize("kind, alpha, beta, q", [
    ("sectional", 0.5, 0.1, [0.2, 0.9]),
    ("sectional", 0.999, 0.49, [0.28, 0.03]),
    ("strong", 0.5, 0.04, [0.43, 0.9, 3.4]),
    ("strong", 0.9, 0.14, [0.4999, 0.3, 1.4]),
    ("strong_nonneg", 0.5, 0.06, [0.46, 0.5, 2.8]),
    ("strong_nonneg", 0.9999, 0.489, [0.49995, 3.5e-4, 0.047]),
    # c3 on its lower edge mu/NU2_MAX
    ("strong", 0.5, 1e-4, [1e-4, 0.5, 0.5]),
])
def test_profile_gradient_matches_differences_of_the_profile(kind, alpha, beta, q):
    profile = lc._profile_objective(lifted_spec(kind), alpha, beta, 1.0)
    val, grad, c3 = profile(q)
    assert math.isfinite(val)
    if q[0] == 1e-4:
        assert c3 == q[2] / NU2_MAX
    want = fd_gradient(lambda x: profile(x)[0], q, [0.0] * len(q), fd_steps(q))
    assert grad == pytest.approx(want, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("alpha, beta", [(0.1, 0.011467), (0.5, 0.104482), (0.9, 0.311332)])
def test_sectional_walk_from_a_lower_floor_reaches_the_same_beta(monkeypatch, alpha, beta):
    # the walk must not depend on where it starts: a probe stalled on the
    # c3 = 1e-4 face would end near the direct threshold instead (0.011214,
    # 0.102246 and 0.307947 from this floor)
    monkeypatch.setattr(lc, "BETA_FLOOR", 1e-9)
    r = lc.threshold_bisect(alpha, "sectional", "lifted")
    assert abs(r.beta - beta) <= DEFAULT.tol_beta
