"""Instance generation, basis pursuit, null-space oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from lp_oracles import (basis_support_holds, lp_basis_pursuit, lp_strong_holds,
                        lp_support_holds, lp_support_holds_many)
from scipy.linalg import null_space

from l1lab import empirical as emp
from l1lab import weak_alpha_of_beta, weak_nonneg_alpha_of_beta
from l1lab.config import DEFAULT, Config
from l1lab.errors import DimensionError, DomainError, RankDeficientError


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def test_generate_instance_deterministic():
    a = emp.generate_instance(10, 5, 2, seed=7)
    b = emp.generate_instance(10, 5, 2, seed=7)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.x_true, b.x_true)
    assert np.array_equal(a.support, b.support)


def test_generate_instance_consistency():
    inst = emp.generate_instance(30, 12, 4, seed=3)
    assert np.linalg.norm(inst.y - inst.A @ inst.x_true) <= 1e-12
    assert inst.k == 4
    assert np.all(np.abs(inst.x_true[inst.support]) >= 0.5)


def test_generate_instance_nonneg_signs():
    inst = emp.generate_instance(30, 12, 6, nonneg=True, seed=3)
    assert np.all(inst.x_true >= 0)


def test_generate_instance_column_variance():
    inst = emp.generate_instance(1000, 40, 3, seed=11)
    variances = inst.A.var(axis=0)
    assert 0.9 <= variances.mean() <= 1.1


def test_generate_instance_dimension_errors():
    with pytest.raises(DimensionError):
        emp.generate_instance(10, 10, 2, seed=0)  # m == n
    with pytest.raises(DimensionError):
        emp.generate_instance(10, 4, 5, seed=0)  # k > m
    for n, m, k in [(20, 10, 2.5), (20, 10.0, 2), (20.5, 10, 2)]:
        with pytest.raises(DimensionError, match="need an integer"):
            emp.generate_instance(n, m, k, seed=0)


@pytest.mark.parametrize("seed", [-1, 2.5, None])
@pytest.mark.parametrize("entry", [
    lambda seed: emp.trial_seeds(seed, 3),
    lambda seed: emp.generate_instance(10, 5, 2, seed=seed),
    lambda seed: emp.weak_recovery_rate(0.5, 0.1, 40, 3, seed=seed),
    lambda seed: emp.fifty_percent_alpha(0.1, 40, 3, seed=seed),
], ids=["trial_seeds", "generate_instance", "weak_recovery_rate", "fifty_percent_alpha"])
def test_a_seed_must_be_an_integer_at_least_zero(monkeypatch, entry, seed):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with a bad seed")

    monkeypatch.setattr(emp, "solve_basis_pursuit", no_solve)
    with pytest.raises(DomainError, match="need an integer seed >= 0"):
        entry(seed)


# ---------------------------------------------------------------------------
# basis pursuit
# ---------------------------------------------------------------------------

def test_bp_zero_instance():
    inst = emp.generate_instance(20, 8, 0, seed=2)
    rep = emp.solve_basis_pursuit(inst)
    assert rep.recovered
    assert rep.rel_error <= 1e-10


def test_bp_easy_instance_recovers():
    inst = emp.generate_instance(40, 30, 3, seed=1)
    rep = emp.solve_basis_pursuit(inst)
    assert rep.recovered
    assert rep.residual <= 1e-8


def test_bp_adversarial_instance_fails():
    # beta = 0.9 * alpha is far above the weak curve: recovery should
    # essentially never happen (a stalled solve counts as a miss too)
    from l1lab.errors import SolverStalledError

    hits = 0
    for seed in range(10):
        inst = emp.generate_instance(40, 10, 9, seed=seed)
        try:
            rep = emp.solve_basis_pursuit(inst)
        except SolverStalledError:
            continue
        hits += int(rep.recovered)
    assert hits <= 1


# the LP comparisons ask the solver for the precision they check: at the
# default bp_tol = 1e-7 its l1 norm sits up to 1.5e-7 relative above the optimum
TIGHT = Config(bp_tol=1e-9)


@pytest.fixture
def no_certificate(monkeypatch):
    """Plain ADMM: no dual certificate is ever tried."""
    monkeypatch.setattr(emp, "_dual_certificate", lambda *args: None)


@pytest.mark.usefixtures("no_certificate")
def test_bp_matches_lp_objective():
    # the solver's own point reaches the LP optimum within 1e-7
    for seed in range(6):
        inst = emp.generate_instance(30, 18, 5, seed=seed)
        rep = emp.solve_basis_pursuit(inst, config=TIGHT)
        l1_lp = np.abs(lp_basis_pursuit(inst.A, inst.y)).sum()
        assert np.abs(rep.x).sum() <= l1_lp + 1e-7 * max(1.0, l1_lp)
        assert np.linalg.norm(inst.A @ rep.x - inst.y) <= 1e-12 * np.linalg.norm(inst.y)


@pytest.mark.usefixtures("no_certificate")
def test_bp_nonneg_matches_lp():
    for seed in range(4):
        inst = emp.generate_instance(24, 14, 4, nonneg=True, seed=seed)
        rep = emp.solve_basis_pursuit(inst, nonneg=True, config=TIGHT)
        x_lp = lp_basis_pursuit(inst.A, inst.y, nonneg=True)
        assert rep.x.min() >= -1e-7
        assert np.abs(rep.x).sum() <= np.abs(x_lp).sum() + 1e-7
        assert rep.residual <= 1e-8
        assert np.linalg.norm(inst.A @ rep.x - inst.y) <= 1e-12 * np.linalg.norm(inst.y)


@pytest.mark.parametrize("cond", [1e2, 1e5, 1e8])
def test_row_basis_is_an_orthonormal_qr_of_a_transpose(cond):
    # the reduced QR of _row_qr is A^T = QR with orthonormal Q; the complete
    # one adds n - m orthonormal columns that span null(A)
    rng = np.random.default_rng(11)
    m, n = 40, 90
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, m)))[0]
    A = (U * np.logspace(0, -np.log10(cond), m)) @ V.T
    Q, R = emp._row_qr(A, "reduced")
    assert Q.shape == (n, m) and R.shape == (m, m)
    assert np.abs(Q.T @ Q - np.eye(m)).max() <= 1e-13
    assert np.abs(Q @ R - A.T).max() <= 1e-13 * np.abs(A).max()
    assert np.array_equal(R, np.triu(R))
    Qc, Rc = emp._row_qr(A, "complete")
    assert Qc.shape == (n, n) and Rc.shape == (n, m)
    assert np.abs(Qc @ Rc - A.T).max() <= 1e-13 * np.abs(A).max()
    N = Qc[:, m:]
    assert np.abs(N.T @ N - np.eye(n - m)).max() <= 1e-13
    assert np.abs(A @ N).max() <= 1e-13 * np.abs(A).max()
    assert np.array_equal(emp._null_basis(A), N)


@pytest.mark.parametrize("m, n", [(6, 12), (18, 30), (60, 200), (1, 5)])
def test_affine_projector_is_the_pseudoinverse_projection(m, n):
    rng = np.random.default_rng(m * n)
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    project, Q = emp._affine_projector(A, y)
    assert np.array_equal(Q, emp._row_qr(A, "reduced")[0])
    for _ in range(3):
        v = 3.0 * rng.standard_normal(n)
        p = project(v)
        expected = v - np.linalg.pinv(A) @ (A @ v - y)
        assert np.linalg.norm(p - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(project(p) - p) <= 1e-12 * np.linalg.norm(p)


def test_norm_is_numpys_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 7, 200, 1000):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
        assert emp._norm(v) == np.linalg.norm(v)


@pytest.mark.parametrize("make_dependent", [
    lambda A: A[4],
    lambda A: A[0] + A[1],
    lambda A: np.zeros(A.shape[1]),
], ids=["duplicated-row", "sum-of-two-rows", "zero-row"])
def test_bp_rejects_a_rank_deficient_matrix_before_iterating(monkeypatch, make_dependent):
    def no_threshold(*args, **kwargs):
        raise AssertionError("an ADMM iteration ran on a rank-deficient matrix")

    monkeypatch.setattr(emp, "_soft_threshold", no_threshold)
    for seed in range(5):
        inst = emp.generate_instance(12, 6, 2, seed=seed)
        A = inst.A.copy()
        A[5] = make_dependent(A)
        bad = emp.ProblemInstance(A=A, x_true=inst.x_true, support=inst.support,
                                  signs=inst.signs, y=A @ inst.x_true, seed=seed)
        with pytest.raises(RankDeficientError):
            emp.solve_basis_pursuit(bad)
        with pytest.raises(RankDeficientError):
            emp.strong_nullspace_holds(A, 1)


# (nonneg, alpha offset from the weak curve, trial) -> (recovered, iterations)
# at n = 200, beta = 0.1, solved as weak_recovery_rate solves them but with
# no dual certificate: plain ADMM.  A change to the projection that moves any
# of these changes the solver's behaviour, not just its speed.
PINNED_SOLVES = {
    (False, -0.08, 0): (False, 13),
    (False, -0.08, 1): (False, 22),
    (False, -0.08, 2): (False, 26),
    (False, 0.08, 0): (True, 406),
    (False, 0.08, 1): (True, 429),
    (False, 0.08, 2): (True, 469),
    (True, -0.08, 0): (False, 7),
    (True, -0.08, 1): (False, 3),
    (True, -0.08, 2): (False, 3),
    (True, 0.08, 0): (True, 645),
    (True, 0.08, 1): (True, 607),
    (True, 0.08, 2): (True, 1039),
}


# the same solves with the certificate on: (recovered, iterations, decided_by)
PINNED_CERTIFIED = {
    (False, -0.08, 0): (False, 13, "l1_cutoff"),
    (False, -0.08, 1): (False, 22, "l1_cutoff"),
    (False, -0.08, 2): (False, 26, "l1_cutoff"),
    (False, 0.08, 0): (True, 10, "certificate"),
    (False, 0.08, 1): (True, 10, "certificate"),
    (False, 0.08, 2): (True, 10, "certificate"),
    (True, -0.08, 0): (False, 7, "l1_cutoff"),
    (True, -0.08, 1): (False, 3, "l1_cutoff"),
    (True, -0.08, 2): (False, 3, "l1_cutoff"),
    (True, 0.08, 0): (True, 20, "certificate"),
    (True, 0.08, 1): (True, 10, "certificate"),
    (True, 0.08, 2): (True, 20, "certificate"),
}


def _weak_trial(nonneg, offset, seed, n=200, beta=0.1):
    # one solve at alpha_w(beta) + offset, as weak_recovery_rate solves it
    alpha = (weak_nonneg_alpha_of_beta if nonneg else weak_alpha_of_beta)(beta) + offset
    inst = emp.generate_instance(n, int(round(alpha * n)), int(round(beta * n)),
                                 nonneg=nonneg, seed=seed)
    cutoff = (1.0 - 1e-9) * float(np.abs(inst.x_true).sum())
    return emp.solve_basis_pursuit(inst, nonneg=nonneg, config=replace(DEFAULT, bp_max_iter=8000),
                                   fail_below_l1=cutoff)


@pytest.mark.usefixtures("no_certificate")
@pytest.mark.parametrize("nonneg, offset, trial", sorted(PINNED_SOLVES))
def test_bp_pinned_decisions_and_iterations(nonneg, offset, trial):
    rep = _weak_trial(nonneg, offset, int(emp.trial_seeds(77, 3)[trial]))
    assert (rep.recovered, rep.solver_iterations) == PINNED_SOLVES[nonneg, offset, trial]


@pytest.mark.parametrize("nonneg, offset, trial", sorted(PINNED_CERTIFIED))
def test_bp_pinned_certified_decisions(nonneg, offset, trial):
    rep = _weak_trial(nonneg, offset, int(emp.trial_seeds(77, 3)[trial]))
    assert (rep.recovered, rep.solver_iterations, rep.decided_by) == \
        PINNED_CERTIFIED[nonneg, offset, trial]


def test_certificate_keeps_every_decision(monkeypatch):
    # 24 solves around the weak curve: the same decisions with the
    # certificate on and off, and every hit is certified
    cases = [(nonneg, offset, int(seed)) for nonneg in (False, True)
             for offset in (-0.08, 0.04, 0.08) for seed in emp.trial_seeds(5, 4)]
    on = [_weak_trial(*case) for case in cases]
    monkeypatch.setattr(emp, "_dual_certificate", lambda *args: None)
    off = [_weak_trial(*case) for case in cases]
    assert [r.recovered for r in on] == [r.recovered for r in off]
    assert sum(r.recovered for r in on) >= 8
    assert all(r.decided_by == ("certificate" if r.recovered else "l1_cutoff") for r in on)
    assert all(a.solver_iterations < b.solver_iterations for a, b in zip(on, off) if a.recovered)


# ---------------------------------------------------------------------------
# the dual certificate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def certificate_cases():
    """(instance, nonneg, report or None on a stall, LP minimizer) for 108
    instances: 18 seeds at 3 shapes (n = 24..60) near the weak curve of each
    sign model, solved with no l1 cutoff, so a miss is checked for a
    certificate every CERT_EVERY iterations and by the face search at
    CERT_SEARCH_AFTER, up to its budget."""
    shapes = {False: [(24, 12, 4), (40, 20, 7), (60, 30, 11)],
              True: [(24, 12, 7), (40, 20, 11), (60, 30, 17)]}
    config = replace(DEFAULT, bp_max_iter=8000)
    cases = []
    for nonneg, sizes in shapes.items():
        for n, m, k in sizes:
            for seed in range(18):
                inst = emp.generate_instance(n, m, k, nonneg=nonneg, seed=1000 * n + seed)
                try:
                    rep = emp.solve_basis_pursuit(inst, nonneg=nonneg, config=config)
                except emp.SolverStalledError:
                    rep = None
                cases.append((inst, nonneg, rep, lp_basis_pursuit(inst.A, inst.y, nonneg=nonneg)))
    return cases


def test_a_certified_solve_is_the_lp_minimizer(certificate_cases, monkeypatch):
    certified = [(inst, nonneg) for inst, nonneg, rep, x_lp in certificate_cases
                 if rep is not None and rep.decided_by == "certificate"]
    assert len(certified) >= 50
    for inst, nonneg, rep, x_lp in certificate_cases:
        if rep is not None and rep.decided_by == "certificate":
            assert rep.recovered and rep.rel_error == 0.0
            assert np.array_equal(rep.x, inst.x_true) and rep.x is not inst.x_true
            assert np.abs(rep.x - x_lp).max() <= 1e-7
    # plain ADMM reaches the same verdict on every certified instance
    monkeypatch.setattr(emp, "_dual_certificate", lambda *args: None)
    for inst, nonneg in certified:
        rep = emp.solve_basis_pursuit(inst, nonneg=nonneg)
        assert rep.recovered and rep.decided_by == "tolerance"


def test_no_certificate_when_the_lp_beats_the_planted_vector(certificate_cases):
    beaten = [rep for inst, nonneg, rep, x_lp in certificate_cases
              if np.abs(x_lp).sum() < (1.0 - 1e-9) * np.abs(inst.x_true).sum()]
    assert len(beaten) >= 30
    assert all(rep is None or (rep.decided_by == "tolerance" and not rep.recovered)
               for rep in beaten)


def test_the_face_search_decides_like_the_lp(certificate_cases):
    # the LP-proposed candidate certifies every instance the dual iterates
    # certified and none that the LP minimizer beats
    searched = {True: 0, False: 0}
    for inst, nonneg, rep, x_lp in certificate_cases:
        beaten = np.abs(x_lp).sum() < (1.0 - 1e-9) * np.abs(inst.x_true).sum()
        certified = rep is not None and rep.decided_by == "certificate"
        if beaten or certified:
            Q = emp._affine_projector(inst.A, inst.y)[1]
            found = emp._dual_certificate(Q, inst, nonneg)[1]()
            assert found == certified
            searched[found] += 1
    assert searched[True] >= 50 and searched[False] >= 30


def test_the_face_search_certifies_a_nearly_degenerate_hit(monkeypatch):
    # x* is the LP minimizer and the best certificate has max v_off =
    # 1 - 7.7e-6; the dual iterates stay just outside it, so plain ADMM
    # stalls at the Monte Carlo budget and the search certifies the hit
    inst = emp.generate_instance(200, 61, 20, nonneg=True, seed=2798641990805214926)
    config = replace(DEFAULT, bp_max_iter=8000)
    rep = emp.solve_basis_pursuit(inst, nonneg=True, config=config)
    assert (rep.recovered, rep.decided_by, rep.solver_iterations) == \
        (True, "certificate", emp.CERT_SEARCH_AFTER)
    assert np.abs(rep.x - lp_basis_pursuit(inst.A, inst.y, nonneg=True)).max() <= 1e-7
    monkeypatch.setattr(emp, "_dual_certificate", lambda *args: None)
    with pytest.raises(emp.SolverStalledError):
        emp.solve_basis_pursuit(inst, nonneg=True, config=config)


def _certified_instance(nonneg=False):
    inst = emp.generate_instance(40, 24, 4, nonneg=nonneg, seed=3)
    assert emp.solve_basis_pursuit(inst, nonneg=nonneg).decided_by == "certificate"
    return inst


def _refuses(inst, nonneg=False):
    # no certificate is built for inst, and its solve is not certified
    Q = emp._affine_projector(inst.A, inst.A @ inst.x_true)[1]
    if emp._dual_certificate(Q, inst, nonneg) is not None:
        return False
    try:
        rep = emp.solve_basis_pursuit(inst, nonneg=nonneg)
    except emp.SolverStalledError:
        return True
    return rep.decided_by != "certificate"


def test_no_certificate_for_a_duplicated_support_column():
    # x* moves freely between two equal columns of the same sign, so it is
    # no unique minimizer, though a v with v_S = s and |v_off| < 1 may exist
    inst = _certified_instance()
    A = inst.A.copy()
    i, j = inst.support[:2]
    A[:, j] = A[:, i]
    x = inst.x_true.copy()
    x[j] = abs(x[j]) * np.sign(x[i])
    assert _refuses(replace(inst, A=A, x_true=x, signs=np.sign(x[inst.support]), y=A @ x))


def test_no_certificate_when_y_is_not_a_x_true():
    inst = _certified_instance()
    y = inst.y + 1e-6 * np.random.default_rng(0).standard_normal(len(inst.y))
    assert _refuses(replace(inst, y=y))
    rep = emp.solve_basis_pursuit(replace(inst, y=y))
    assert np.linalg.norm(inst.A @ rep.x - y) <= 1e-10


def test_no_certificate_for_a_negative_entry_under_nonneg():
    # x* with one negative entry is certified as a general-sign solution,
    # but it is not feasible for the nonnegative program
    inst = _certified_instance(nonneg=True)
    x = inst.x_true.copy()
    x[inst.support[0]] *= -1.0
    flipped = replace(inst, x_true=x, signs=np.sign(x[inst.support]), y=inst.A @ x)
    assert emp.solve_basis_pursuit(flipped).decided_by == "certificate"
    assert _refuses(flipped, nonneg=True)


def test_no_certificate_when_v_misses_the_support_signs(monkeypatch):
    # nudge the face projection so that v_S[0] is 2e-11 off sign(x*_S[0])
    inst = _certified_instance()
    real = emp._affine_projector

    def nudged(A, y):
        project, Q = real(A, y)
        if A.shape == inst.A.shape:
            return project, Q
        shift = 2e-11 * A[0] / (A[0] @ A[0])
        return (lambda t: project(t) + shift), Q

    monkeypatch.setattr(emp, "_affine_projector", nudged)
    rep = emp.solve_basis_pursuit(inst)
    assert rep.recovered and rep.decided_by == "tolerance"


@pytest.mark.parametrize("nonneg", [False, True])
def test_the_zero_vector_is_certified_at_the_first_check(nonneg):
    inst = emp.generate_instance(20, 8, 0, nonneg=nonneg, seed=2)
    rep = emp.solve_basis_pursuit(inst, nonneg=nonneg)
    assert (rep.recovered, rep.decided_by, rep.solver_iterations) == (True, "certificate", 1)
    assert rep.rel_error == 0.0 and not rep.x.any()


@pytest.mark.parametrize("nonneg", [False, True])
def test_a_square_system_with_a_full_support_is_certified(nonneg):
    # no coordinate lies off the support; x* is the only feasible point
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    x = np.abs(rng.standard_normal(6)) + 0.5
    if not nonneg:
        x *= rng.choice([-1.0, 1.0], size=6)
    inst = emp.ProblemInstance(A=A, x_true=x, support=np.arange(6), signs=np.sign(x),
                               y=A @ x, seed=0)
    rep = emp.solve_basis_pursuit(inst, nonneg=nonneg)
    assert (rep.recovered, rep.decided_by) == (True, "certificate")


def test_the_certificate_reads_the_support_from_x_true():
    # support and signs fields that disagree with x_true change nothing
    inst = _certified_instance()
    wrong = replace(inst, support=inst.support[:1], signs=-inst.signs[:1])
    rep = emp.solve_basis_pursuit(wrong)
    assert rep.decided_by == "certificate" and np.array_equal(rep.x, inst.x_true)


def test_weak_recovery_rate_deep_regime():
    rate = emp.weak_recovery_rate(0.99, 0.01, 200, 50, seed=5)
    assert rate >= 0.98


def test_weak_recovery_rate_validation():
    with pytest.raises(DimensionError):
        emp.weak_recovery_rate(0.5, 0.001, 100, 5, seed=0)  # k rounds to 0


@pytest.mark.parametrize("experiment, error", [
    (lambda: emp.weak_recovery_rate(math.nan, 0.1, 50, 2), DomainError),
    (lambda: emp.weak_recovery_rate(math.inf, 0.1, 50, 2), DomainError),
    (lambda: emp.weak_recovery_rate(0.5, math.nan, 50, 2), DomainError),
    (lambda: emp.weak_recovery_rate(0.5, math.inf, 50, 2), DomainError),
    (lambda: emp.weak_recovery_rate(0.5, 0.1, 50.5, 2), DimensionError),
    (lambda: emp.weak_recovery_rate(0.5, 0.1, 50.0, 2), DimensionError),
    (lambda: emp.fifty_percent_alpha(math.inf, 200, 5), DomainError),
    (lambda: emp.fifty_percent_alpha(-math.inf, 200, 5), DomainError),
], ids=["nan-alpha", "inf-alpha", "nan-beta", "inf-beta", "fractional-n", "float-n",
        "fifty-inf-beta", "fifty-minus-inf-beta"])
def test_recovery_experiments_refuse_bad_numbers(monkeypatch, experiment, error):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with invalid arguments")

    monkeypatch.setattr(emp, "solve_basis_pursuit", no_solve)
    monkeypatch.setattr(emp, "generate_instance", no_solve)
    with pytest.raises(error, match="need a finite|need an integer"):
        experiment()


@pytest.mark.parametrize("experiment", [
    lambda: emp.weak_recovery_rate(0.5, 0.1, 50, 0),
    lambda: emp.fifty_percent_alpha(0.1, 50, 0),
    lambda: emp.weak_recovery_rate(0.5, 0.1, 50, 2.5),
    lambda: emp.fifty_percent_alpha(0.1, 50, 2.5),
    lambda: emp.fifty_percent_alpha(0.1, 50, 5, tol_alpha=-0.01),
    lambda: emp.fifty_percent_alpha(0.1, 50, 5, tol_alpha=0.0),
    lambda: emp.fifty_percent_alpha(0.1, 50, 5, tol_alpha=math.nan),
    lambda: emp.fifty_percent_alpha(0.1, 50, 5, tol_alpha=math.inf),
    lambda: emp.fifty_percent_alpha(0.985, 200, 5),
    lambda: emp.fifty_percent_alpha(math.nan, 200, 5),
], ids=["weak_recovery_rate", "fifty_percent_alpha",
        "weak_recovery_rate-fractional-trials", "fifty_percent_alpha-fractional-trials",
        "negative-tol_alpha", "zero-tol_alpha", "nan-tol_alpha", "inf-tol_alpha",
        "empty-bracket", "nan-beta"])
def test_recovery_experiments_need_a_trial(monkeypatch, experiment):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with invalid arguments")

    monkeypatch.setattr(emp, "solve_basis_pursuit", no_solve)
    with pytest.raises(DomainError):
        experiment()


@pytest.mark.parametrize("n", [0, -10, 50.0, 2.5])
def test_fifty_percent_alpha_needs_a_positive_integer_n(monkeypatch, n):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with invalid arguments")

    monkeypatch.setattr(emp, "weak_recovery_rate", no_solve)
    with pytest.raises(DimensionError, match="integer n >= 1"):
        emp.fifty_percent_alpha(0.1, n, 5)


def test_fifty_percent_alpha_stops_at_the_float_spacing_of_its_bracket(monkeypatch):
    # tol_alpha below the spacing of doubles near the step: once the midpoint
    # rounds onto an end, further probes cannot narrow the bracket
    probes = []

    def step_rate(alpha, *args, **kwargs):
        probes.append(alpha)
        if len(probes) >= 100:
            raise AssertionError("still bisecting after 100 probes")
        return 1.0 if alpha >= 0.4 else 0.0

    monkeypatch.setattr(emp, "weak_recovery_rate", step_rate)
    alpha = emp.fifty_percent_alpha(0.1, 200, 5, tol_alpha=1e-20)
    assert 0.1 + 2.0 / 200 < alpha < 1.0 - 1.0 / 200
    assert abs(alpha - 0.4) <= 1e-15
    assert len(probes) < 100


# ---------------------------------------------------------------------------
# null-space oracles
# ---------------------------------------------------------------------------

def test_support_decisions_match_the_null_space_basis_form():
    # the vertex enumeration and the LPs over a null-space basis decide
    # every support alike
    decisions = []
    for m, n in [(12, 16), (6, 12), (8, 10), (15, 16)]:
        for seed in range(2):
            A = np.random.default_rng(seed).standard_normal((m, n))
            rng = np.random.default_rng(100 + seed)
            for k in (1, 2, 3):
                for _ in range(3):
                    support = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
                    for nonneg in (False, True):
                        holds = emp.sectional_nullspace_holds(A, support, nonneg=nonneg)
                        assert holds == basis_support_holds(A, support, nonneg), \
                            ((m, n), seed, support, nonneg)
                        decisions.append(holds)
    assert any(decisions) and not all(decisions)  # both answers were exercised


def test_sectional_one_dimensional_nullspace():
    # m = n - 1: the null space is a single line; compare the oracle's
    # answer against the direct |w| comparison
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = 8
        A = rng.standard_normal((n - 1, n))
        w = null_space(A)[:, 0]
        support = [0, 3]
        direct = np.abs(w[support]).sum() < np.abs(np.delete(w, support)).sum()
        assert emp.sectional_nullspace_holds(A, support) == direct


def test_sectional_nonneg_differs_from_the_general_property():
    # on this seeded matrix some null-space direction carries at least half
    # its l1 norm on the support, but none that is nonnegative off the
    # support has a negative sum
    A = np.random.default_rng(0).standard_normal((6, 12))
    support = [0, 1, 2]
    assert not emp.sectional_nullspace_holds(A, support)
    assert emp.sectional_nullspace_holds(A, support, nonneg=True)
    for seed in range(1, 6):
        A = np.random.default_rng(seed).standard_normal((6, 12))
        assert (emp.sectional_nullspace_holds(A, support, nonneg=True)
                == basis_support_holds(A, support, nonneg=True))


def test_sectional_k_zero_vacuous():
    A = emp.generate_instance(12, 6, 1, seed=0).A
    assert emp.sectional_nullspace_holds(A, [])


def test_sectional_vs_sampling_falsification():
    # one-sided: random directions can only refute, never certify
    rng = np.random.default_rng(42)
    for seed in (1, 2, 3):
        inst = emp.generate_instance(16, 12, 2, seed=seed)
        support = inst.support
        N = null_space(inst.A)
        holds = emp.sectional_nullspace_holds(inst.A, support)
        Z = rng.standard_normal((100_000, N.shape[1]))
        W = Z @ N.T
        on = np.abs(W[:, support]).sum(axis=1)
        off = np.abs(W).sum(axis=1) - on
        sample_finds_violator = bool(np.any(on >= off))
        if sample_finds_violator:
            assert not holds
        if holds:
            assert not sample_finds_violator


@pytest.mark.parametrize("nonneg", [False, True])
@pytest.mark.parametrize("support", [[-1, 2], [0.5, 1], [0, 0, 1], [0, 12]],
                         ids=["negative", "non-integer", "repeated", "past-n"])
def test_sectional_rejects_malformed_supports(monkeypatch, support, nonneg):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the enumeration ran on a malformed support")

    monkeypatch.setattr(emp, "_null_basis", no_enumeration)
    monkeypatch.setattr(emp, "_vertices", no_enumeration)
    A = np.random.default_rng(0).standard_normal((6, 12))
    with pytest.raises(DimensionError):
        emp.sectional_nullspace_holds(A, support, nonneg=nonneg)


@pytest.mark.parametrize("k", [1.5, 2.0, np.float64(1.0), "2"])
def test_strong_rejects_a_non_integer_k(monkeypatch, k):
    monkeypatch.setattr(emp, "_null_basis", None)  # no enumeration may run
    monkeypatch.setattr(emp, "_vertices", None)
    A = np.random.default_rng(0).standard_normal((6, 8))
    with pytest.raises(DimensionError, match="k an integer"):
        emp.strong_nullspace_holds(A, k)


def test_sectional_cap_enforced():
    A = np.random.default_rng(0).standard_normal((20, 30))
    with pytest.raises(DimensionError):
        emp.sectional_nullspace_holds(A, [0, 1])


def test_strong_k_zero_and_caps():
    A = emp.generate_instance(16, 12, 1, seed=0).A
    assert emp.strong_nullspace_holds(A, 0)
    # no cap on k: one enumeration decides every k, and k = 16 - 1 fails
    assert not emp.strong_nullspace_holds(A, 15)
    # 10 x 19 (C(19, 11) = 75,582 candidates) is decided; 9 x 23 has
    # C(23, 10) = 1,144,066, over the cap
    emp.strong_nullspace_holds(np.random.default_rng(0).standard_normal((10, 19)), 1)
    big = np.random.default_rng(0).standard_normal((9, 23))
    with pytest.raises(DimensionError, match="C\\(23, 10\\) = 1144066"):
        emp.strong_nullspace_holds(big, 1)


def test_strong_implies_nonneg_strong():
    # the nonnegative violation set embeds into the general one
    count = 0
    for seed in range(8):
        inst = emp.generate_instance(14, 11, 1, seed=100 + seed)
        if emp.strong_nullspace_holds(inst.A, 2):
            count += 1
            assert emp.strong_nullspace_holds(inst.A, 2, nonneg=True)
    assert count >= 1  # the premise fired at least once


def test_strong_monotone_in_k():
    # over 50 matrices the fraction satisfying the strong property at k=1
    # strictly exceeds the fraction at k=2
    n, m = 16, 12
    holds1 = holds2 = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        A = rng.standard_normal((m, n))
        h1 = emp.strong_nullspace_holds(A, 1)
        h2 = emp.strong_nullspace_holds(A, 2)
        holds1 += int(h1)
        holds2 += int(h2)
        assert h1 or not h2  # k-monotone per matrix as well
    assert holds1 > holds2


# d = n - m = 1, 3, 6, 3 and 7
PARITY_SHAPES = [(7, 8), (5, 8), (2, 8), (6, 9), (3, 10)]


def test_enumeration_decisions_equal_the_lp_form():
    # 5 shapes x 24 seeded matrices; on each, strong at k = 1 or 2 and
    # sectional on two random supports of size 1-3, in both sign models,
    # decided by the vertex enumeration and by the LPs on A
    answers = {}
    for m, n in PARITY_SHAPES:
        for seed in range(24):
            rng = np.random.default_rng([m, n, seed])
            A = rng.standard_normal((m, n))
            k = 1 + seed % 2
            supports = [np.sort(rng.choice(n, size=size, replace=False))
                        for size in rng.integers(1, 4, size=2)]
            for nonneg in (False, True):
                checks = [("strong", emp.strong_nullspace_holds(A, k, nonneg=nonneg),
                           lp_strong_holds(A, k, nonneg))]
                checks += [("sectional", emp.sectional_nullspace_holds(A, S, nonneg=nonneg), want)
                           for S, want in zip(supports, lp_support_holds_many(A, supports, nonneg))]
                for kind, got, want in checks:
                    assert got == want, ((m, n), seed, kind, nonneg)
                    answers.setdefault((kind, nonneg), set()).add(got)
    assert all(seen == {False, True} for seen in answers.values()), answers


def test_one_dimensional_null_space_is_its_own_vertex():
    # d = 1: no coordinate is set to zero and the null vector w itself is
    # the only vertex, so every margin is read off w exactly
    for seed in range(4):
        A = np.random.default_rng(seed).standard_normal((6, 7))
        w = null_space(A)[:, 0]
        w = w / np.abs(w).sum()
        top = np.sort(np.abs(w))[::-1]
        for k in range(8):
            assert (emp.strong_nullspace_margin(A, k)
                    == pytest.approx(top[:k].sum() - 0.5, abs=1e-12))
        assert (emp.sectional_nullspace_margin(A, [0, 3])
                == pytest.approx(abs(w[0]) + abs(w[3]) - 0.5, abs=1e-12))
        oriented = -w if w.sum() > 0 else w
        negatives = int((oriented < 0).sum())
        for k in (1, 2, 3):
            assert emp.strong_nullspace_holds(A, k, nonneg=True) == (negatives > k)


def test_square_matrices_and_k_zero_are_vacuous():
    # m = n: null(A) = {0}, so every property holds with margin exactly -1/2
    A = np.random.default_rng(0).standard_normal((6, 6))
    for nonneg in (False, True):
        assert emp.strong_nullspace_holds(A, 3, nonneg=nonneg)
        assert emp.sectional_nullspace_holds(A, [0, 1, 2], nonneg=nonneg)
    assert emp.strong_nullspace_margin(A, 3) == -0.5
    assert emp.sectional_nullspace_margin(A, [0, 1, 2]) == -0.5
    # k = 0 holds on any matrix, even one the rank check would refuse
    B = np.random.default_rng(1).standard_normal((3, 8))
    assert emp.strong_nullspace_margin(B, 0) == -0.5
    assert emp.sectional_nullspace_margin(B, []) == -0.5
    deficient = np.vstack([B, B[0]])
    for nonneg in (False, True):
        assert emp.strong_nullspace_holds(deficient, 0, nonneg=nonneg)
        with pytest.raises(RankDeficientError):
            emp.strong_nullspace_holds(deficient, 1, nonneg=nonneg)


def test_supports_past_m_match_the_lp_form():
    # |S| >= m + 1: A_S is rank deficient and some null vector lives on S.
    # On Gaussian A it has a nonzero sum, so the nonnegative property fails;
    # with columns 0 and 1 repeated, that vector is e_0 - e_1, of sum zero,
    # and the decision rests on the other vertices
    answers = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 7))
        if seed % 2:
            A[:, 1] = A[:, 0]
        for S in ([0, 1, 2, 3], [0, 1, 2, 4, 5]):
            for nonneg in (False, True):
                got = emp.sectional_nullspace_holds(A, S, nonneg=nonneg)
                assert got == lp_support_holds(A, np.array(S), nonneg), (seed, S, nonneg)
                if nonneg:
                    answers.add(got)
    assert answers == {False, True}


def _structured_matrices():
    rng = np.random.default_rng(7)
    cases = []
    while len(cases) < 4:   # +-1 entries: many dependent column subsets
        B = rng.choice([-1.0, 1.0], size=(4, 8))
        if np.linalg.matrix_rank(B) == 4:
            cases.append(B)
    C = rng.standard_normal((4, 8))
    C[:, 1] = C[:, 0]       # a repeated column: e_0 - e_1 is a vertex, a tie at S = {0}
    D = rng.standard_normal((5, 9))
    D[:, 2], D[:, 4] = -D[:, 3], 2.0 * D[:, 5]
    return cases + [C, D]


def test_structured_matrices_match_the_lp_form():
    decisions = []
    for A in _structured_matrices():
        n = A.shape[1]
        for nonneg in (False, True):
            for k in (1, 2):
                got = emp.strong_nullspace_holds(A, k, nonneg=nonneg)
                assert got == lp_strong_holds(A, k, nonneg), (A, k, nonneg)
                decisions.append(got)
            for S in itertools.combinations(range(n), 2):
                got = emp.sectional_nullspace_holds(A, S, nonneg=nonneg)
                assert got == lp_support_holds(A, np.array(S), nonneg), (A, S, nonneg)
                decisions.append(got)
    assert any(decisions) and not all(decisions)
    # the tie: ||w_S||_1 = ||w_complement||_1 exactly for w = e_0 - e_1, which
    # the decision counts as holding, as the LP form does
    C = _structured_matrices()[4]
    assert emp.sectional_nullspace_margin(C, [0]) == pytest.approx(0.0, abs=1e-12)
    assert emp.sectional_nullspace_holds(C, [0])


def test_exactly_zero_rows_of_the_null_basis():
    # A = e_2^T: the QR of A^T gives a null basis with an exactly zero row, so
    # every set of coordinates holding 2 is rank deficient and the
    # reflected row N_t Z is exactly zero there; the vertices are +-e_i,
    # i != 2
    A = np.eye(5)[[2]]
    assert emp.strong_nullspace_margin(A, 1) == 0.5
    assert emp.sectional_nullspace_margin(A, [2]) == -0.5
    assert emp.sectional_nullspace_margin(A, [0, 2]) == 0.5
    assert not emp.sectional_nullspace_holds(A, [0, 2], nonneg=True)
    assert emp.sectional_nullspace_holds(A, [2], nonneg=True)
    V = np.vstack(list(emp._vertices(emp._null_basis(A))))
    assert np.all(np.isfinite(V))
    assert {int(i) for i in np.abs(V).argmax(axis=1)} == {0, 1, 3, 4}


def test_candidate_cap_bounds_the_enumeration():
    # C(n, m+1) candidates: 8 x 23 has 817,190 and is accepted, 9 x 23 has
    # 1,144,066 and is not; n past 24 is refused before math.comb runs
    emp.check_nullspace_size(8, 23, 2)
    with pytest.raises(DimensionError, match="C\\(23, 10\\) = 1144066"):
        emp.check_nullspace_size(9, 23, 2)
    assert math.comb(23, 10) > emp.CANDIDATE_CAP >= math.comb(23, 9)
    with pytest.raises(DimensionError, match="capped at n <= 24"):
        emp.check_nullspace_size(10 ** 6 - 1, 10 ** 6, 1)


def test_weak_recovery_rate_counts_solver_failures_as_misses(monkeypatch):
    from l1lab.errors import SolverStalledError

    failing = {0: SolverStalledError, 3: RankDeficientError, 5: SolverStalledError}
    trial = iter(range(100))

    def fake_solve(inst, **kwargs):
        i = next(trial)
        if i in failing:
            raise failing[i]("forced")
        return emp.RecoveryReport(recovered=True, rel_error=0.0,
                                  solver_iterations=1, residual=0.0, x=inst.x_true)

    monkeypatch.setattr(emp, "solve_basis_pursuit", fake_solve)
    with pytest.warns(UserWarning) as record:
        rate = emp.weak_recovery_rate(0.5, 0.1, 40, 8, seed=0)
    assert rate == 5 / 8
    assert len(record) == 1
    assert str(record[0].message).startswith(
        "2/8 trials hit the solver budget and 1/8 drew a row-rank-deficient A;")


def test_weak_recovery_rate_solves_under_the_callers_budget():
    # every trial here is certified at iteration 10 under the default budget
    assert emp.weak_recovery_rate(0.9, 0.1, 40, 3) == 1.0
    with pytest.warns(UserWarning, match="^3/3 trials hit the solver budget and 0/3 drew"):
        assert emp.weak_recovery_rate(0.9, 0.1, 40, 3, config=Config(bp_max_iter=5)) == 0.0


def test_weak_trials_solve_the_seeded_instances_with_the_l1_cutoff():
    trials = list(emp.weak_trials(0.3, 0.1, 40, 3, seed=4))
    assert [inst.seed for inst, _ in trials] == list(emp.trial_seeds(4, 3))
    for inst, out in trials:
        assert inst.shape == (12, 40) and inst.k == 4
        cutoff = (1.0 - 1e-9) * np.abs(inst.x_true).sum()
        assert out == emp.solve_basis_pursuit(inst, fail_below_l1=cutoff)
    assert [out.decided_by for _, out in trials] == ["l1_cutoff"] * 3


# ---------------------------------------------------------------------------
# the memo of the last matrix's vertices
# ---------------------------------------------------------------------------

def _count_enumerations(monkeypatch):
    # empty the memo and count the null bases _candidates builds from here on
    calls = []
    real = emp._null_basis

    def counted(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(emp, "_null_basis", counted)
    monkeypatch.setattr(emp, "_memo", (None, ()))
    return calls


def _all_answers(A, fresh):
    # every margin and decision for supports of size 0-3 and k = 0-3, in
    # both sign models; with fresh, the memo is emptied before each call
    def ask(fn, *args, **kwargs):
        if fresh:
            emp._memo = (None, ())
        return fn(*args, **kwargs)

    n = A.shape[1]
    margins, decisions = [], []
    for k in range(4):
        margins.append(ask(emp.strong_nullspace_margin, A, k))
        decisions += [ask(emp.strong_nullspace_holds, A, k, nonneg=nonneg)
                      for nonneg in (False, True)]
        for S in itertools.combinations(range(n), k):
            margins.append(ask(emp.sectional_nullspace_margin, A, S))
            decisions += [ask(emp.sectional_nullspace_holds, A, S, nonneg=nonneg)
                          for nonneg in (False, True)]
    return np.array(margins), decisions


def test_memoized_answers_equal_fresh_ones(monkeypatch):
    # 20 seeded matrices of three shapes; bitwise-equal margins and the same
    # decisions, in both sign models, whether the vertices are enumerated
    # once per matrix or once per call
    calls = _count_enumerations(monkeypatch)
    seen = set()
    for (m, n), count in [((12, 16), 6), ((8, 11), 7), ((5, 9), 7)]:
        for seed in range(count):
            A = np.random.default_rng([m, n, seed]).standard_normal((m, n))
            del calls[:]
            memo_margins, memo_decisions = _all_answers(A, fresh=False)
            assert len(calls) == 1
            fresh_margins, fresh_decisions = _all_answers(A, fresh=True)
            assert len(calls) > 1
            assert memo_margins.tobytes() == fresh_margins.tobytes(), ((m, n), seed)
            assert memo_decisions == fresh_decisions, ((m, n), seed)
            seen.update(fresh_decisions)
    assert seen == {False, True}


def test_a_matrix_mutated_in_place_is_enumerated_afresh(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    A = np.random.default_rng(5).standard_normal((12, 16))
    before = emp.strong_nullspace_margin(A, 2)
    A[3, 7] += 0.5
    after = emp.strong_nullspace_margin(A, 2)
    assert len(calls) == 2 and after != before
    emp._memo = (None, ())
    assert emp.strong_nullspace_margin(A.copy(), 2) == after


def test_stored_vertex_chunks_are_read_only(monkeypatch):
    _count_enumerations(monkeypatch)
    A = np.random.default_rng(6).standard_normal((6, 10))
    emp.sectional_nullspace_holds(A, [0, 1])
    chunks = emp._memo[1]
    assert isinstance(chunks, tuple) and chunks
    assert sum(len(V) for V in chunks) == math.comb(10, 7)
    for V in chunks:
        assert not V.flags.writeable
        with pytest.raises(ValueError):
            V[0, 0] = 1.0


def test_a_rank_deficient_matrix_raises_on_every_call(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    good = np.random.default_rng(1).standard_normal((5, 9))
    emp.strong_nullspace_holds(good, 1)
    stored = emp._memo
    bad = np.vstack([good[:4], good[0] + good[1]])
    for _ in range(3):
        for nonneg in (False, True):
            with pytest.raises(RankDeficientError):
                emp.strong_nullspace_holds(bad, 1, nonneg=nonneg)
    assert len(calls) == 1 + 6
    assert emp._memo is stored


def test_the_size_check_runs_on_a_memo_hit(monkeypatch):
    _count_enumerations(monkeypatch)
    A = np.random.default_rng(2).standard_normal((6, 8))
    emp.strong_nullspace_holds(A, 1)
    monkeypatch.setattr(emp, "_null_basis", None)  # every call below is a hit
    for k in (9, 2.0, -1):
        with pytest.raises(DimensionError):
            emp.strong_nullspace_margin(A, k)
    assert emp.strong_nullspace_holds(A, 8) is False


def test_a_matrix_over_the_budget_is_never_stored(monkeypatch):
    # C(16, 13) * 16 = 8960 floats; below that budget every call enumerates
    calls = _count_enumerations(monkeypatch)
    A = np.random.default_rng(3).standard_normal((12, 16))
    want = emp.strong_nullspace_margin(A, 2)
    monkeypatch.setattr(emp, "_memo", (None, ()))
    monkeypatch.setattr(emp, "_BATCH_ELEMS", 8959)
    del calls[:]
    assert emp.strong_nullspace_margin(A, 2) == want
    assert emp.strong_nullspace_margin(A, 2) == want
    assert len(calls) == 2 and emp._memo == (None, ())


def test_one_enumeration_serves_the_implication_chain(monkeypatch):
    # the bench chain on one 12 x 16 matrix: strong at k = 1 and 2,
    # nonnegative strong at k = 2, sectional on all 136 supports of size 1
    # and 2
    calls = _count_enumerations(monkeypatch)
    A = np.random.default_rng(4).standard_normal((12, 16))
    for k in (1, 2):
        emp.strong_nullspace_holds(A, k)
    emp.strong_nullspace_holds(A, 2, nonneg=True)
    supports = [S for k in (1, 2) for S in itertools.combinations(range(16), k)]
    assert len(supports) == 136
    for S in supports:
        emp.sectional_nullspace_holds(A, S)
    assert calls == [(12, 16)]


def test_the_memo_holds_one_matrix(monkeypatch):
    # alternating two matrices enumerates on every switch
    calls = _count_enumerations(monkeypatch)
    rng = np.random.default_rng(8)
    A, B = rng.standard_normal((12, 16)), rng.standard_normal((12, 16))
    for M in (A, A, B, B, A, B):
        emp.sectional_nullspace_holds(M, [0])
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

ORACLES = {
    "strong-margin": lambda A: emp.strong_nullspace_margin(A, 1),
    "sectional-margin": lambda A: emp.sectional_nullspace_margin(A, [0]),
    "strong": lambda A: emp.strong_nullspace_holds(A, 1),
    "strong-nonneg": lambda A: emp.strong_nullspace_holds(A, 1, nonneg=True),
    "sectional": lambda A: emp.sectional_nullspace_holds(A, [0]),
    "sectional-nonneg": lambda A: emp.sectional_nullspace_holds(A, [0], nonneg=True),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("oracle", ORACLES.values(), ids=ORACLES.keys())
def test_oracles_refuse_a_non_finite_matrix(monkeypatch, oracle, bad):
    calls = _count_enumerations(monkeypatch)
    rng = np.random.default_rng(0)
    oracle(rng.standard_normal((6, 10)))
    stored = emp._memo
    monkeypatch.setattr(emp, "_vertices", None)  # no enumeration may run
    A = rng.standard_normal((6, 10))
    A[0, 0] = bad
    for _ in range(2):
        with pytest.raises(DomainError, match="non-finite"):
            oracle(A)
    assert len(calls) == 3 and emp._memo is stored


@pytest.mark.parametrize("where", ["A", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_bp_refuses_non_finite_input_before_iterating(monkeypatch, where, bad):
    def no_threshold(*args, **kwargs):
        raise AssertionError("an ADMM iteration ran on non-finite input")

    monkeypatch.setattr(emp, "_soft_threshold", no_threshold)
    inst = emp.generate_instance(10, 6, 1, seed=0)
    A, y = inst.A.copy(), inst.y.copy()
    if where == "A":
        A[0, 0] = bad
    else:
        y[0] = bad
    with pytest.raises(DomainError, match="non-finite"):
        emp.solve_basis_pursuit(replace(inst, A=A, y=y))
