"""Instance generation, basis pursuit, null-space oracles."""

import itertools

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog

from l1lab import empirical as emp
from l1lab import weak_alpha_of_beta, weak_nonneg_alpha_of_beta
from l1lab.config import Config
from l1lab.errors import DimensionError, DomainError, RankDeficientError


def lp_basis_pursuit(A, y, nonneg=False):
    """Exact LP reformulation (split x = u - v, u, v >= 0): the oracle the
    operator-splitting solver is checked against."""
    m, n = A.shape
    if nonneg:
        res = linprog(np.ones(n), A_eq=A, b_eq=y, bounds=[(0, None)] * n,
                      method="highs")
        assert res.status == 0
        return res.x
    res = linprog(np.ones(2 * n), A_eq=np.hstack([A, -A]), b_eq=y,
                  bounds=[(0, None)] * (2 * n), method="highs")
    assert res.status == 0
    return res.x[:n] - res.x[n:]


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


def test_bp_matches_lp_objective():
    # the solver's own point reaches the LP optimum within 1e-7
    for seed in range(6):
        inst = emp.generate_instance(30, 18, 5, seed=seed)
        rep = emp.solve_basis_pursuit(inst, config=TIGHT)
        l1_lp = np.abs(lp_basis_pursuit(inst.A, inst.y)).sum()
        assert np.abs(rep.x).sum() <= l1_lp + 1e-7 * max(1.0, l1_lp)
        assert np.linalg.norm(inst.A @ rep.x - inst.y) <= 1e-12 * np.linalg.norm(inst.y)


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
    # the second Gram-Schmidt pass keeps Q orthonormal where one pass loses
    # orthogonality as eps * cond^2
    rng = np.random.default_rng(11)
    m, n = 40, 90
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, m)))[0]
    A = (U * np.logspace(0, -np.log10(cond), m)) @ V.T
    Qt, R = emp._row_basis(A)
    assert np.abs(Qt @ Qt.T - np.eye(m)).max() <= 1e-13
    assert np.abs(Qt.T @ R - A.T).max() <= 1e-13 * np.abs(A).max()
    assert np.array_equal(R, np.triu(R))
    householder = np.abs(np.diag(np.linalg.qr(A.T, mode="r")))
    assert np.abs(np.diag(R) - householder).max() <= 1e-13 * householder.max()


@pytest.mark.parametrize("m, n", [(6, 12), (18, 30), (60, 200), (1, 5)])
def test_affine_projector_is_the_pseudoinverse_projection(m, n):
    rng = np.random.default_rng(m * n)
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    project = emp._affine_projector(A, y)
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


# (nonneg, alpha offset from the weak curve, trial) -> (recovered, iterations)
# at n = 200, beta = 0.1, solved as weak_recovery_rate solves them.  A change
# to the projection that moves any of these changes the solver's behaviour,
# not just its speed.
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


@pytest.mark.parametrize("nonneg, offset, trial", sorted(PINNED_SOLVES))
def test_bp_pinned_decisions_and_iterations(nonneg, offset, trial):
    n, beta = 200, 0.1
    alpha = (weak_nonneg_alpha_of_beta if nonneg else weak_alpha_of_beta)(beta) + offset
    seed = int(emp.trial_seeds(77, 3)[trial])
    inst = emp.generate_instance(n, int(round(alpha * n)), int(round(beta * n)),
                                 nonneg=nonneg, seed=seed)
    cutoff = (1.0 - 1e-9) * float(np.abs(inst.x_true).sum())
    rep = emp.solve_basis_pursuit(inst, nonneg=nonneg, max_iter=8000, fail_below_l1=cutoff)
    assert (rep.recovered, rep.solver_iterations) == PINNED_SOLVES[nonneg, offset, trial]


def test_weak_recovery_rate_deep_regime():
    rate = emp.weak_recovery_rate(0.99, 0.01, 200, 50, seed=5)
    assert rate >= 0.98


def test_weak_recovery_rate_validation():
    with pytest.raises(DimensionError):
        emp.weak_recovery_rate(0.5, 0.001, 100, 5, seed=0)  # k rounds to 0


@pytest.mark.parametrize("experiment", [
    lambda: emp.weak_recovery_rate(0.5, 0.1, 50, 0),
    lambda: emp.fifty_percent_alpha(0.1, 50, 0),
], ids=["weak_recovery_rate", "fifty_percent_alpha"])
def test_recovery_experiments_need_a_trial(monkeypatch, experiment):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with no trials")

    monkeypatch.setattr(emp, "solve_basis_pursuit", no_solve)
    with pytest.raises(DomainError):
        experiment()


# ---------------------------------------------------------------------------
# null-space oracles
# ---------------------------------------------------------------------------

def basis_lp_max(c_max, A_ub, b_ub, bounds):
    res = linprog(-np.asarray(c_max), A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return -float(res.fun)


def basis_support_holds(A, support, nonneg=False):
    """The support-level property decided over a null-space basis N, the
    reference the LPs on A are checked against.

    General signs: for each sign pattern b on the support (first sign +1),
    maximize b . w_support - ||w_complement||_1 over {w = N z,
    |w|_inf <= 1}, with t >= |w_complement| as extra variables.
    Nonnegative: maximize -sum(w) over {w = N z, w >= 0 off the support,
    |w|_inf <= 1}.  The property holds iff every optimum is <= 1e-9.
    """
    N = null_space(A)
    n, d = N.shape
    support = np.asarray(sorted(support), dtype=int)
    mask = np.zeros(n, dtype=bool)
    mask[support] = True
    N_c = N[~mask, :]
    n_c = N_c.shape[0]
    if nonneg:
        A_rows = np.vstack([-N_c, N, -N])
        b_ub = np.concatenate([np.zeros(n_c), np.ones(2 * n)])
        return basis_lp_max(-N.sum(axis=0), A_rows, b_ub, [(None, None)] * d) <= 1e-9
    A_rows = np.vstack([
        np.hstack([N_c, -np.eye(n_c)]),
        np.hstack([-N_c, -np.eye(n_c)]),
        np.hstack([N, np.zeros((n, n_c))]),
        np.hstack([-N, np.zeros((n, n_c))]),
    ])
    b_ub = np.concatenate([np.zeros(2 * n_c), np.ones(2 * n)])
    bounds = [(None, None)] * d + [(0, None)] * n_c
    for rest in itertools.product((1.0, -1.0), repeat=len(support) - 1):
        c_max = np.concatenate([N[mask, :].T @ np.array((1.0,) + rest), -np.ones(n_c)])
        if basis_lp_max(c_max, A_rows, b_ub, bounds) > 1e-9:
            return False
    return True


def test_support_decisions_match_the_null_space_basis_form():
    # the LP on A with w_off = p - q has the same optimum as the LP over a
    # null-space basis, so every per-support decision agrees
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
    # m = n - 1: the null space is a single line; compare the LP answer
    # against the direct |w| comparison
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
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran on a malformed support")

    monkeypatch.setattr(emp, "linprog", no_lp)
    A = np.random.default_rng(0).standard_normal((6, 12))
    with pytest.raises(DimensionError):
        emp.sectional_nullspace_holds(A, support, nonneg=nonneg)


@pytest.mark.parametrize("k", [1.5, 2.0, np.float64(1.0), "2"])
def test_strong_rejects_a_non_integer_k(monkeypatch, k):
    monkeypatch.setattr(emp, "linprog", None)  # no LP may run
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
    with pytest.raises(DimensionError):
        emp.strong_nullspace_holds(A, 5)
    big = np.random.default_rng(0).standard_normal((10, 19))
    with pytest.raises(DimensionError):
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
    assert str(record[0].message).startswith("3/8 trials hit the solver budget")
