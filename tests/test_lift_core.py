"""Sphere term, lifted total, set-term oracle, threshold search."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from l1lab import lift_core as lc
from l1lab import numerics as nm
from l1lab.config import DEFAULT, Config
from l1lab.errors import ConstraintViolatedError, DomainError
from l1lab.reference_values import TABLE_ALPHAS_HIGH, TABLE_ALPHAS_LOW

KINDS = tuple(lc.kind_table())
LIFTED_KINDS = tuple(name for name, spec in lc.kind_table().items()
                     if isinstance(spec, lc.LiftedKind))


def lifted_spec(name):
    """The LiftedKind of a lifted kind."""
    return lc.kind_table()[name]


def margin_of(kind, method):
    """The kind's margin fn(alpha, beta) for `method`, as bound on its
    module now."""
    return getattr(lc.kind_module(kind), f"{kind}_margin_{method}")


def assert_at_direct_root(beta, direct_beta):
    """beta is the direct search's root, which the direct search reports
    itself: one Newton solve, then the margin there."""
    assert beta == direct_beta


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
                                 t=lambda h, params: np.full_like(h, kappa),
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


EPS = DEFAULT.feasibility_margin


def ratio_profile(kind, alpha):
    """The kind's lifted ratio objective at alpha and the default eps."""
    return lc._ratio_profile(lifted_spec(kind), alpha, EPS)


# x = [b, nu1, mu] with mu = c3 nu2, the search coordinates of a lifted search
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
    for alpha in (0.5, 0.999):
        val, grad, _ = ratio_profile(kind, alpha)(x)
        assert type(val) is float and val == math.inf and grad is None


@pytest.mark.parametrize("kind", ["strong", "strong_nonneg"])
def test_ratio_is_inf_where_its_beta_slope_is_not_positive(kind):
    # a strong kind's D is 2 mu: at mu = 0 the total does not move with
    # beta, so it certifies no ratio; off b in (0, 1/2) there is no total
    for q in ([0.3, 1.0, 0.0], [0.0, 1.0, 1.0], [0.5, 1.0, 1.0]):
        val, grad, _ = ratio_profile(kind, 0.5)(q)
        assert val == math.inf and grad is None, q


def test_lifted_objective_finite_far_from_the_edges():
    # a very negative entry point (about -2.8e3) whose left tail underflows
    val, _, c3 = ratio_profile("strong_nonneg", 0.5)([B_MIN, 0.0, 1e-3 * NU2_MAX])
    assert type(val) is float and math.isfinite(val)
    assert 1e-3 <= c3 <= lc.C3_MAX  # mu / c3 stays within NU2_MAX


# ---------------------------------------------------------------------------
# rarely taken branches of threshold_bisect, driven by stub margins
# ---------------------------------------------------------------------------

def stub_table(monkeypatch, margin, slope):
    """Give every kind `margin` for each method it has, and every lifted
    kind the direct optimum (margin at alpha 0.5 + sqrt(0.5), 0,
    slope(beta)), where `slope` is the stub margin's beta-derivative, so
    that the direct residual at alpha 0.5 reads the stub margin, which must
    then be increasing and concave in beta, as a direct margin is."""
    for name, kind in lc.kind_table().items():
        module = lc.kind_module(name)
        if isinstance(kind, lc.LiftedKind):
            monkeypatch.setattr(module, name.upper(), dataclasses.replace(
                kind, direct=lambda beta: (margin(0.5, beta)[0] + math.sqrt(0.5), 0.0,
                                           slope(beta))))
        for method in {kind.method_for(m) for m in lc.METHODS}:
            monkeypatch.setattr(module, f"{name}_margin_{method}", margin)


def stub_k_term(monkeypatch, name, k0, d):
    """Give the lifted kind `name` the constant c3-free set term
    K = k0 + beta*d; returns its spec."""
    spec = dataclasses.replace(lifted_spec(name), k_term=lambda b, extra: (
        (k0, d), ((0.0,) * (1 + len(extra)), (0.0,) * (1 + len(extra)))))
    monkeypatch.setattr(lc.kind_module(name), name.upper(), spec)
    return spec


@pytest.mark.parametrize("slope", [1.0])
def test_lifted_certificate_reaching_the_cap_returns_the_cap(monkeypatch, slope):
    # with K = -100 + slope*beta the ratio certifies beta near 100, past the
    # cap: the cap is reported, with the closed-form total there as its margin
    spec = stub_k_term(monkeypatch, "strong_nonneg", -100.0, slope)
    assert lc.lifted_threshold(spec, 0.5, EPS, DEFAULT.tol_beta)[0] > 50.0
    r = lc.threshold_bisect(0.5, "strong_nonneg", "lifted")
    assert r.beta == spec.cap
    assert r.condition_margin == lc.lifted_total(spec, r.params_at_optimum, 0.5, spec.cap)
    assert r.condition_margin < -EPS


def test_bisect_floor_infeasible_raises_range_error(monkeypatch):
    # with K = 100 + beta the ratio is negative everywhere: the total at
    # the floor is far above -eps, as it is for the real strong kind at
    # alpha 0.003, whose ratio ends at 7.5e-5
    with pytest.raises(lc.ThresholdRangeError, match="bisection floor"):
        lc.threshold_bisect(0.003, "strong", "lifted")
    spec = stub_k_term(monkeypatch, "strong", 100.0, 1.0)
    assert lc.lifted_threshold(spec, 0.5, EPS, DEFAULT.tol_beta)[0] < 0.0
    with pytest.raises(lc.ThresholdRangeError, match="bisection floor"):
        lc.threshold_bisect(0.5, "strong", "lifted")


def test_bisect_whole_range_feasible_returns_the_cap(monkeypatch):
    probes = []

    def margin(alpha, beta):
        probes.append(beta)
        return -1.0, None

    stub_table(monkeypatch, margin, slope=lambda beta: 0.0)
    r = lc.threshold_bisect(0.5, "strong_nonneg", "direct")
    cap = lc.kind_table()["strong_nonneg"].cap
    assert r.beta == cap and r.condition_margin == -1.0
    # the residual at the floor is negative and flat, so the Newton solve
    # goes to the cap without evaluating it; then the margin at the cap
    assert probes == [lc.BETA_FLOOR, cap]


def test_direct_floor_within_two_eps_of_the_boundary_is_reported(monkeypatch):
    # the margin is -1.5 eps at the floor, so the residual (margin + 2 eps)
    # is positive there; the floor itself is the threshold to tol_beta
    eps = DEFAULT.feasibility_margin
    probes = []

    def margin(alpha, beta):
        probes.append(beta)
        return beta - lc.BETA_FLOOR - 1.5 * eps, None

    stub_table(monkeypatch, margin, slope=lambda beta: 1.0)
    r = lc.threshold_bisect(0.5, "strong", "direct")
    assert r.beta == lc.BETA_FLOOR and r.condition_margin == -1.5 * eps
    # the residual at the floor, then the margin there
    assert probes == [lc.BETA_FLOOR, lc.BETA_FLOOR]


CONTRACT_ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99,
                   0.999, 0.9999)


@pytest.mark.parametrize("kind", KINDS)
def test_direct_solve_evaluates_the_margin_only_at_the_reported_beta(kind, monkeypatch):
    # a solve is the Newton solve's residual calls, then the margin once at
    # the root it returns: one exact alpha_w for a weak kind (its residual
    # reads the statistical dimension, not alpha_of_beta), one direct minimum
    # for a lifted kind on top of one per residual call, whose direct lift
    # parameters are built for that margin only
    from l1lab import thresholds_general as tg
    from l1lab import thresholds_nonneg as tn

    lifted = isinstance(lc.kind_table()[kind], lc.LiftedKind)
    name = f"{kind}_{'direct_minimum' if lifted else 'alpha_of_beta'}"
    module = tn if "nonneg" in kind else tg
    calls = {"counted": 0, "residual": 0, "point": 0}
    roots = []

    def counted(original, key):
        def fn(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return fn

    def residual(original):
        def fn(self, alpha, eps):
            return counted(original(self, alpha, eps), "residual")
        return fn

    def newton_root(*args, **kwargs):
        roots.append(nm.newton_root(*args, **kwargs))
        return roots[-1]

    monkeypatch.setattr(module, name, counted(getattr(module, name), "counted"))
    for cls in (lc.LiftedKind, lc.WeakKind):
        monkeypatch.setattr(cls, "residual", residual(cls.residual))
    monkeypatch.setattr(lc, "newton_root", newton_root)
    monkeypatch.setattr(lc, "_direct_point", counted(lc._direct_point, "point"))
    for alpha in CONTRACT_ALPHAS:
        calls.update(counted=0, residual=0, point=0)
        roots.clear()
        r = lc.threshold_bisect(alpha, kind, "direct")
        assert roots == [r.beta], alpha
        assert 1 <= calls["residual"] <= 16, (alpha, calls)
        assert calls["counted"] == 1 + (calls["residual"] if lifted else 0), (alpha, calls)
        assert calls["point"] == (1 if lifted else 0), (alpha, calls)


@pytest.mark.parametrize("kind", ["weak", "weak_nonneg"])
@pytest.mark.parametrize("alpha", [5e-5, lc.BETA_FLOOR, lc.BETA_FLOOR + 1e-9])
def test_weak_range_below_the_floor_raises_range_error(kind, alpha):
    # alpha - 2 eps at or below the floor leaves no beta to search
    with pytest.raises(lc.ThresholdRangeError, match="bisection floor"):
        lc.threshold_bisect(alpha, kind, "direct")


@pytest.mark.parametrize("tol", [None, 1e-3], ids=["default-tol", "tol-1e-3"])
@pytest.mark.parametrize("kind", KINDS)
def test_direct_root_route_reports_beta_to_tol_beta(kind, tol):
    # the reported beta is feasible and beta + tol_beta is not (or is past
    # the cap), so tol_beta binds the direct and weak kinds
    eps = DEFAULT.feasibility_margin
    config = DEFAULT if tol is None else Config(tol_beta=tol)
    step = config.tol_beta
    margin_fn = margin_of(kind, "direct")
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
        margin_fn = margin_of(kind, "direct")
        assert margin_fn(0.5, r.beta)[0] < -eps <= margin_fn(0.5, r.beta + 1e-3)[0]
    assert seen == [1e-3, 1e-3]


@pytest.mark.parametrize("kind", KINDS)
def test_residual_slope_is_its_central_difference(kind):
    # the slope each residual carries, from the envelope theorem at the
    # optimal multiplier, is the derivative the Newton solve needs; these
    # betas keep every kind's optimal multiplier positive
    residual = lc.kind_table()[kind].residual(0.5, DEFAULT.feasibility_margin)
    for beta in np.geomspace(1e-3, 0.2, 8).tolist():
        h = 1e-6 * beta
        diff = (residual(beta + h)[0] - residual(beta - h)[0]) / (2.0 * h)
        slope = residual(beta)[1]
        assert slope > 0 and abs(slope - diff) <= 1e-6 * slope, (beta, slope, diff)


@pytest.mark.parametrize("kind", KINDS)
def test_newton_solve_stays_on_the_feasible_side(kind, monkeypatch):
    # each residual is concave and increasing in beta, so the Newton solve
    # from the floor evaluates it only where it is not positive, at rising
    # betas, apart from a first evaluation at the floor that ends the solve;
    # the most evaluations a solve makes on this grid is 11
    from test_golden_grid import ALPHAS

    seen = []

    def recorded(original):
        def fn(self, alpha, eps):
            f = original(self, alpha, eps)

            def residual(beta):
                value, slope = f(beta)
                seen.append((beta, value))
                return value, slope
            return residual
        return fn

    for cls in (lc.LiftedKind, lc.WeakKind):
        monkeypatch.setattr(cls, "residual", recorded(cls.residual))
    for alpha in ALPHAS:
        seen.clear()
        try:
            lc.threshold_bisect(alpha, kind, "direct")
        except lc.ThresholdRangeError:
            pass
        betas = [beta for beta, _ in seen]
        assert betas[0] == lc.BETA_FLOOR and betas == sorted(set(betas)), alpha
        assert all(value <= 0.0 for _, value in seen[1:]), (alpha, seen)
        assert len(seen) == 1 or seen[0][1] <= 0.0, (alpha, seen)
        assert len(seen) <= 16, (alpha, len(seen))


# ---------------------------------------------------------------------------
# the shared lifted route (one LiftedKind per kind)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", LIFTED_KINDS)
@pytest.mark.parametrize("alpha", [0.005, 0.5, 0.9999])
def test_lifted_search_starts_at_b_quarter_on_the_direct_optimum(name, alpha, monkeypatch):
    # the one search starts at b = 1/4 with the direct optimum at the
    # direct root: its nu1, and mu = c3 nu2 at c3 = sqrt(alpha/2), the best
    # c3 at b = 1/4 as eps -> 0 (at alpha 0.005 the direct root is the
    # floor, where the direct route raises ThresholdRangeError)
    kind = lifted_spec(name)
    root = lc.newton_root(kind.residual(alpha, EPS), lc.BETA_FLOOR, kind.cap,
                          DEFAULT.tol_beta / 4.0)
    _, direct = lc.direct_margin(kind, alpha, root)
    starts = []
    projected_bfgs = lc.projected_bfgs

    def recording(fg, x0, *args, **kwargs):
        starts.append(list(x0))
        return projected_bfgs(fg, x0, *args, **kwargs)

    monkeypatch.setattr(lc, "projected_bfgs", recording)
    lc.threshold_bisect(alpha, name, "lifted")
    want = [0.25, direct.nu1, math.sqrt(alpha / 2.0) * direct.nu2][:1 + kind.n_extra]
    assert starts == [want]
    assert lc._ratio_profile(kind, alpha, 0.0)(want)[2] == pytest.approx(
        math.sqrt(alpha / 2.0), rel=1e-15)


def test_an_infinite_start_has_its_b_halved(monkeypatch):
    # a set term that overflows for b > 0.1 makes the start at b = 1/4
    # infinite: b is halved to 0.125, and again to 0.0625, where the one
    # search runs and ends feasible below b = 0.1
    from l1lab import thresholds_general as tg

    k_term = tg.SECTIONAL.k_term
    spec = dataclasses.replace(tg.SECTIONAL, k_term=lambda b, extra: (
        ((math.inf, 0.0), None) if b > 0.1 else k_term(b, extra)))
    monkeypatch.setattr(tg, "SECTIONAL", spec)
    starts = []
    projected_bfgs = lc.projected_bfgs

    def recording(fg, x0, *args, **kwargs):
        starts.append(x0[0])
        return projected_bfgs(fg, x0, *args, **kwargs)

    monkeypatch.setattr(lc, "projected_bfgs", recording)
    r = lc.threshold_bisect(0.5, "sectional", "lifted")
    assert starts == [0.25, 0.125, 0.0625]
    assert r.params_at_optimum.b <= 0.1 and r.condition_margin < -EPS


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
        margin, _ = margin_of(kind, "lifted")(0.5, 0.02)
        assert margin < 0
    assert all(calls.values()), calls


def test_every_kind_has_its_spec_and_a_margin_per_method():
    # threshold_bisect and the bench's hooks read a kind <name> from its
    # module by one rule: the spec <NAME> and <name>_margin_<method>
    for name, spec in lc.kind_table().items():
        module = lc.kind_module(name)
        assert getattr(module, name.upper()) is spec
        methods = {spec.method_for(m) for m in lc.METHODS}
        assert methods == ({"direct"} if isinstance(spec, lc.WeakKind) else set(lc.METHODS))
        for method in methods:
            assert callable(getattr(module, f"{name}_margin_{method}")), (name, method)
        assert math.isfinite(margin_of(name, "direct")(0.5, 0.05)[0])


def test_the_spec_cap_bounds_the_direct_and_the_lifted_search(monkeypatch):
    # a kind's cap lives on its spec alone: a spec with a lower cap stops
    # both the direct root solve and the lifted search there
    from l1lab import thresholds_general as tg

    monkeypatch.setattr(tg, "SECTIONAL", dataclasses.replace(tg.SECTIONAL, cap=0.2))
    for method in lc.METHODS:
        r = lc.threshold_bisect(0.999, "sectional", method)
        assert r.beta <= 0.2, method
        assert r.condition_margin < -DEFAULT.feasibility_margin


# ---------------------------------------------------------------------------
# the lifted search on the real kinds: one ratio maximization per solve
# ---------------------------------------------------------------------------

def closed_total(spec, params, alpha, beta):
    """The master-condition total at explicit lift parameters, in the
    optimizer's order of operations."""
    return -0.5 * params.c3 + spec.set_term_at(beta, params) + lc.i_sph(params.c3, alpha)


TABLE_ALPHAS = TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH


@pytest.fixture(scope="module")
def lifted_solves():
    """(kind, alpha) -> the lifted ThresholdResult, for the three lifted
    kinds at the 15 table alphas."""
    return {(kind, alpha): lc.threshold_bisect(alpha, kind, "lifted")
            for kind in LIFTED_KINDS for alpha in TABLE_ALPHAS}


@pytest.mark.parametrize("kind", LIFTED_KINDS)
def test_reported_beta_is_the_ratio_at_the_reported_params(lifted_solves, kind):
    # the reported parameters' affine total crosses -2 eps at the reported
    # beta: to 1e-12 relative, or to those totals' rounding over their
    # slope where that is coarser (totals of terms up to ~150, nu2 (2 beta
    # - 1) at small beta, whose doubles lie 2.8e-14 apart); the margin is
    # the closed-form total there, and the search's own ratio is that beta
    spec = lifted_spec(kind)
    for alpha in TABLE_ALPHAS:
        r = lifted_solves[kind, alpha]
        p = r.params_at_optimum
        t0, t1 = closed_total(spec, p, alpha, 0.0), closed_total(spec, p, alpha, 1.0)
        crossing = (-2.0 * EPS - t0) / (t1 - t0)
        assert abs(r.beta - crossing) <= max(1e-12 * r.beta, 1e-13 / (t1 - t0)), alpha
        assert r.condition_margin == lc.lifted_total(spec, p, alpha, r.beta)
        assert r.condition_margin == pytest.approx(-2.0 * EPS, abs=1e-13)
        assert lc.lifted_threshold(spec, alpha, EPS, DEFAULT.tol_beta) == (r.beta, p)


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
@pytest.mark.parametrize("alpha", TABLE_ALPHAS)
def test_reported_beta_is_certified_by_two_routes(lifted_solves, kind, alpha):
    spec = lifted_spec(kind)
    r = lifted_solves[kind, alpha]
    p = r.params_at_optimum
    assert closed_total(spec, p, alpha, r.beta) == r.condition_margin
    oracle = (lc.exp_set_term_oracle(spec.integrand, p, r.beta)
              + lc.i_sph(p.c3, alpha) - 0.5 * p.c3)
    assert oracle < -DEFAULT.feasibility_margin


def q_of(spec, p):
    """The search point q = [b, nu1(, mu = c3*nu2)] of lift parameters p."""
    return [p.b, p.nu1, p.c3 * p.nu2][:1 + spec.n_extra]


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
def test_warm_lifted_probe_never_ends_above_its_start(lifted_solves, kind):
    # one search warm-started from lift parameters ends with a beta at
    # least the ratio there, which is what lets a search from reported
    # parameters keep their certificate; lifted_threshold's own search,
    # warm-started from the direct optimum, reports at least its start's
    alpha = 0.5
    spec = lifted_spec(kind)
    profile = lc._ratio_profile(spec, alpha, EPS)
    r = lifted_solves[kind, alpha]
    starts = [q_of(spec, r.params_at_optimum),
              q_of(spec, lc.LiftParams(c3=0.5, gamma=1.0, nu1=0.4, nu2=0.2))]
    for q in starts:
        _, (f, _, _) = lc.projected_bfgs(profile, q, lc._Q_BOX[:len(q)],
                                         fatol=lc._FATOL, max_iter=lc._MAX_ITER)
        assert f <= profile(q)[0] < math.inf, q
    root = lc.threshold_bisect(alpha, kind, "direct").beta
    _, direct = lc.direct_margin(spec, alpha, root)
    start = [0.25, direct.nu1, math.sqrt(0.5 * alpha) * direct.nu2][:1 + spec.n_extra]
    assert r.beta >= -profile(start)[0]


def polished_ratio(spec, p, alpha):
    """The largest ratio (-2 eps - T(p', 0)) / (T(p', 1) - T(p', 0)) that
    scipy's Nelder-Mead reaches from p over p' = (log c3, b, nu1[, log nu2])
    (c3 and nu2 in SEARCH_BOX), with T the closed-form lifted_total alone."""
    from scipy.optimize import minimize

    (c3_lo, c3_hi), _, (_, nu1_hi), (_, nu2_hi) = lc.SEARCH_BOX

    def params(x):
        c3, b, nu1 = math.exp(x[0]), x[1], x[2]
        nu2 = math.exp(x[3]) if len(x) > 3 else 0.0
        if not (c3_lo <= c3 <= c3_hi and 0.0 < b < 0.5 and 0.0 <= nu1 <= nu1_hi
                and nu2 <= nu2_hi):
            return None
        return lc.LiftParams(c3=c3, gamma=c3 / (4.0 * b), nu1=nu1, nu2=nu2)

    def negative_ratio(x):
        q = params(x)
        if q is None:
            return math.inf
        t0, t1 = lc.lifted_total(spec, q, alpha, 0.0), lc.lifted_total(spec, q, alpha, 1.0)
        ratio = (-2.0 * EPS - t0) / (t1 - t0) if t1 > t0 else -math.inf
        return -ratio if math.isfinite(ratio) else math.inf

    x0 = [math.log(p.c3), p.b, p.nu1] + ([math.log(p.nu2)] if spec.n_extra > 1 else [])
    res = minimize(negative_ratio, x0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
    return -min(res.fun, negative_ratio(x0))


@pytest.mark.parametrize("kind", LIFTED_KINDS)
@pytest.mark.parametrize("alpha", TABLE_ALPHAS)
def test_reported_beta_is_tight_against_a_simplex_polish(lifted_solves, kind, alpha):
    # the reported beta is, to tol_beta, the best the lifted family
    # certifies near the reported parameters, by a second route: a
    # derivative-free polish of the ratio over all four lift parameters,
    # with no closed-form c3 and no projected BFGS
    spec = lifted_spec(kind)
    r = lifted_solves[kind, alpha]
    assert r.beta >= polished_ratio(spec, r.params_at_optimum, alpha) - DEFAULT.tol_beta


def test_a_start_at_a_thousandth_of_nu2_falls_short_at_strong_0_9999(lifted_solves):
    # from mu = 1e-3 nu2 (the direct optimum lifted to c3 = 1e-3) the ratio
    # climbs into the small-c3 corner basin at strong alpha 0.9999 and ends
    # about 1.09e-3 below the search from mu = sqrt(alpha/2) nu2
    spec = lifted_spec("strong")
    alpha = 0.9999
    root = lc.threshold_bisect(alpha, "strong", "direct").beta
    _, direct = lc.direct_margin(spec, alpha, root)
    _, (f, _, _) = lc.projected_bfgs(lc._ratio_profile(spec, alpha, EPS),
                                     [0.25, direct.nu1, 1e-3 * direct.nu2],
                                     lc._Q_BOX, fatol=lc._FATOL, max_iter=lc._MAX_ITER)
    assert lifted_solves["strong", alpha].beta - (-f) > 1e-3


def test_cold_lifted_probe_walks_past_the_small_c3_stall():
    # a single start at c3 = 1e-3 stalls at small c3 here with a margin near
    # +4.7e-4; the ratio search's parameters reach the optimum at c3 ~ 52
    from l1lab.thresholds_nonneg import strong_nonneg_margin_lifted

    margin, params = strong_nonneg_margin_lifted(0.999, 0.4694)
    assert margin < -DEFAULT.feasibility_margin
    assert params.c3 > 1.0


@pytest.mark.parametrize("kind", ["sectional", "strong", "strong_nonneg"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999])
def test_cold_margin_at_the_reported_beta_is_the_search_result(lifted_solves, kind, alpha):
    # a margin is the total at the search's own parameters, so at the
    # reported beta it is the search's margin
    r = lifted_solves[kind, alpha]
    margin, params = lc.lifted_margin(lifted_spec(kind), alpha, r.beta)
    assert margin == r.condition_margin and params == r.params_at_optimum


def test_cold_margin_below_the_floor_is_one_probe_at_beta():
    # the search raises ThresholdRangeError at this alpha, where its ratio
    # ends at 7.5e-5, below the floor; the margin at 5e-5 is the total there
    spec = lifted_spec("strong")
    cold = lc.lifted_margin(spec, 0.003, 5e-5)
    assert cold[0] < -DEFAULT.feasibility_margin
    beta, p = lc.lifted_threshold(spec, 0.003, EPS, DEFAULT.tol_beta)
    assert 5e-5 < beta < lc.BETA_FLOOR
    assert cold == (lc.lifted_total(spec, p, 0.003, 5e-5), p)


def test_cold_margin_outside_the_kind_range_raises():
    # nonnegative strong sets need beta < 1/2; the total alone would be finite
    with pytest.raises(DomainError):
        lc.lifted_margin(lifted_spec("strong_nonneg"), 0.999, 0.55)


@pytest.mark.parametrize("kind", LIFTED_KINDS)
def test_cold_margin_sign_decides_beta(lifted_solves, kind):
    # the total at fixed parameters is affine and increasing in beta, so its
    # sign at 1e-4 either side of the reported beta decides both
    for alpha in (0.1, 0.5):
        r = lifted_solves[kind, alpha]
        below, _ = lc.lifted_margin(lifted_spec(kind), alpha, r.beta - 1e-4)
        above, _ = lc.lifted_margin(lifted_spec(kind), alpha, r.beta + 1e-4)
        assert below < -EPS and above > 0.0, alpha


def test_a_solve_inside_another_kinds_probe_leaves_both_unchanged(monkeypatch):
    # a search holds no shared state: a strong solve made inside the second
    # sectional moment evaluation of a sectional solve, and the sectional
    # solve it interrupts, both keep their bits
    from l1lab import thresholds_general as tg

    alone = lc.threshold_bisect(0.1, "sectional", "lifted")
    inner_alone = lc.threshold_bisect(0.999, "strong", "lifted")
    moments, inner, calls = tg.sectional_exp_moments, [], []

    def wrapper(*args):
        calls.append(args)
        if len(calls) == 2:
            inner.append(lc.threshold_bisect(0.999, "strong", "lifted"))
        return moments(*args)

    monkeypatch.setattr(tg, "sectional_exp_moments", wrapper)
    assert lc.threshold_bisect(0.1, "sectional", "lifted") == alone
    assert len(calls) >= 2 and inner == [inner_alone]


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


def _h(b, alpha, c3):
    """h(c3) = -c3 (2 eps + A c3 + I_sph(c3, alpha)), A = 1/(4b) - 1/2: the
    part of the ratio's numerator that c3 moves."""
    return -c3 * (2.0 * EPS + (0.25 / b - 0.5) * c3 + lc.i_sph(c3, alpha))


def _grid_argmax(b, alpha, lo, hi):
    grid = np.geomspace(lo, hi, 2000)
    vals = [_h(b, alpha, float(c)) for c in grid]
    i = int(np.argmax(vals))
    return vals[i], float(grid[i]), grid


def test_inner_c3_solve_matches_a_dense_log_grid():
    # the closed-form c3 of the ratio profile is the argmax of h over
    # [max(C3_MIN, mu/NU2_MAX), C3_MAX], inside and on both ends
    rng = np.random.default_rng(11)
    profile = {alpha: ratio_profile("strong", alpha) for alpha in (0.001, 0.3, 0.9999)}
    ends = {"lo": 0, "edge": 0, "hi": 0, "inside": 0}
    for i in range(90):
        # b log-uniform towards 0 or towards 1/2
        b = math.exp(rng.uniform(math.log(1e-7), math.log(0.5 - 1e-7)))
        b = b if i % 2 else 0.5 - b
        alpha = float(rng.choice(list(profile)))
        mu = math.exp(rng.uniform(math.log(1e-6), math.log(300.0)))
        c3 = profile[alpha]([b, 1.0, mu])[2]
        lo = max(lc.C3_MIN, mu / NU2_MAX)
        best, at, grid = _grid_argmax(b, alpha, lo, lc.C3_MAX)
        assert _h(b, alpha, c3) >= best - 1e-12 * max(1.0, abs(best))
        step = grid[1] / grid[0]
        assert at / step <= c3 <= at * step
        ends["hi" if c3 == lc.C3_MAX else "edge" if c3 == lo > lc.C3_MIN
             else "lo" if c3 == lo else "inside"] += 1
    assert all(ends.values()), ends


def test_inner_c3_solve_binds_at_mu_over_nu2_max():
    # with mu = c3 nu2 the c3 range starts at mu/400, so nu2 <= 400; a
    # maximum of h below that edge is reported on it: strong at b = 1e-4,
    # where the unconstrained best c3 is about 1.4e-4
    b, nu1, mu = 1e-4, 0.5, 0.5
    val, _, c3 = ratio_profile("strong", 0.5)([b, nu1, mu])
    assert c3 == mu / lc.NU2_MAX and math.isfinite(val)
    best, at, _ = _grid_argmax(b, 0.5, 1e-6, lc.C3_MAX)
    assert at < c3 / 5.0
    best, at, _ = _grid_argmax(b, 0.5, c3, lc.C3_MAX)
    assert at == c3 and _h(b, 0.5, c3) >= best


@pytest.mark.parametrize("kind", LIFTED_KINDS)
def test_reported_params_lie_in_the_search_box(lifted_solves, kind):
    (c3_lo, c3_hi), (b_lo, b_hi), (_, nu1_hi), (_, nu2_hi) = lc.SEARCH_BOX
    for alpha in TABLE_ALPHAS:
        p = lifted_solves[kind, alpha].params_at_optimum
        assert c3_lo <= p.c3 <= c3_hi, (alpha, p)
        assert b_lo <= p.b <= b_hi, (alpha, p)
        assert 0.0 <= p.nu1 <= nu1_hi and 0.0 <= p.nu2 <= nu2_hi, (alpha, p)


def test_clipped_params_are_plain_floats(lifted_solves, monkeypatch):
    # the ratio's c3 is clipped to the ends of SEARCH_BOX (C3_MIN, C3_MAX
    # and, with mu, mu/NU2_MAX), and every reported parameter is a plain
    # float, also where nu2 = mu/c3 is clipped to NU2_MAX
    for r in lifted_solves.values():
        assert all(type(v) is float for v in dataclasses.astuple(r.params_at_optimum))
    strong = lifted_spec("strong")
    c3_hi = lc._ratio_profile(strong, 0.5, EPS)([lc.B_MAX, 1.0, 1.0])[2]
    c3_lo = lc._ratio_profile(strong, 0.001, EPS)([lc.B_MIN, 1.0, 0.0])[2]
    assert (c3_lo, c3_hi) == (lc.C3_MIN, lc.C3_MAX)
    assert type(c3_lo) is float and type(c3_hi) is float
    # the best c3 here (about 0.5) is below mu/NU2_MAX, and mu/c3 rounds
    # to one ulp above NU2_MAX
    edge = [0.25, 1.0, 250.7]
    monkeypatch.setattr(lc, "projected_bfgs", lambda fg, q, box, **kw: (edge, fg(edge)))
    beta, p = lc.lifted_threshold(strong, 0.5, EPS, DEFAULT.tol_beta)
    assert math.isfinite(beta) and all(type(v) is float for v in dataclasses.astuple(p))
    assert p.c3 == 250.7 / lc.NU2_MAX and 250.7 / p.c3 > lc.NU2_MAX
    assert (p.nu1, p.nu2) == (1.0, lc.NU2_MAX)


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
    # K = K0 + beta D from one moment evaluation: the gradient of K at two
    # betas, which fix both pieces', and the set term it gives
    spec = lifted_spec(kind)

    def k_at(beta, x):
        (k0, d), _ = spec.k_term(x[0], x[1:])
        return k0 + beta * d

    for q in GRADIENT_POINTS[kind]:
        (k0, d), (grad_k0, grad_d) = spec.k_term(q[0], q[1:])
        assert math.isfinite(k0) and math.isfinite(d)
        for beta in (0.01, 0.3):
            grad = [a + beta * b for a, b in zip(grad_k0, grad_d)]
            want = fd_gradient(functools.partial(k_at, beta), q, [0.0] * len(q), fd_steps(q))
            assert grad == pytest.approx(want, rel=1e-6, abs=1e-9), (beta, q)
            p = lc.LiftParams(c3=1.0, gamma=0.25 / q[0], nu1=q[1],
                              nu2=q[2] if len(q) > 2 else 0.0)
            assert spec.set_term_at(beta, p) == pytest.approx(
                p.gamma + k0 + beta * d, rel=1e-12), (beta, q)


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
    # the ratio's analytic gradient against differences, at q near the
    # optimum of (alpha, beta); the total of q's parameters at beta is
    # below -2 eps exactly where beta is below the ratio R
    spec = lifted_spec(kind)
    profile = lc._ratio_profile(spec, alpha, EPS)
    val, grad, c3 = profile(q)
    assert math.isfinite(val)
    if q[0] == 1e-4:
        assert c3 == q[2] / NU2_MAX
    want = fd_gradient(lambda x: profile(x)[0], q, [0.0] * len(q), fd_steps(q))
    assert grad == pytest.approx(want, rel=1e-6, abs=1e-9)
    p = lc.LiftParams(c3=c3, gamma=c3 / (4.0 * q[0]), nu1=q[1],
                      nu2=q[2] / c3 if len(q) > 2 else 0.0)
    assert (lc.lifted_total(spec, p, alpha, beta) < -2.0 * EPS) == (beta < -val)
    assert lc.lifted_total(spec, p, alpha, -val) == pytest.approx(-2.0 * EPS, abs=1e-10)


@pytest.mark.parametrize("alpha, beta", [(0.1, 0.011467), (0.5, 0.104482), (0.9, 0.311332)])
def test_sectional_walk_from_a_lower_floor_reaches_the_same_beta(monkeypatch, alpha, beta):
    # the search must not depend on the floor, which moves only the direct
    # root it starts from: a search stalled on the c3 = 1e-4 face would end
    # near the direct threshold instead (0.011214, 0.102246 and 0.307947)
    monkeypatch.setattr(lc, "BETA_FLOOR", 1e-9)
    r = lc.threshold_bisect(alpha, "sectional", "lifted")
    assert abs(r.beta - beta) <= DEFAULT.tol_beta


@pytest.mark.parametrize("alpha, beta", [(0.005, 0.000143), (0.1, 0.006035)])
def test_strong_nonneg_walk_from_a_lower_floor_reaches_the_same_beta(monkeypatch, alpha, beta):
    # the floor moves only the direct root the search starts from
    monkeypatch.setattr(lc, "BETA_FLOOR", 1e-9)
    r = lc.threshold_bisect(alpha, "strong_nonneg", "lifted")
    assert abs(r.beta - beta) <= DEFAULT.tol_beta
