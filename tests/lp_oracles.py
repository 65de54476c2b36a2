"""LP forms of basis pursuit and of the null-space properties: the
references the ADMM solver and the vertex enumeration of l1lab.empirical
are checked against.

lp_basis_pursuit solves the l1 program itself; lp_support_holds decides one
support by one LP on A per sign pattern, basis_support_holds by LPs over a
null-space basis; none shares code with the library.
"""

import itertools

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

_LP_SLACK = 1e-9


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


def lp_support_holds(A: np.ndarray, support: np.ndarray, nonneg: bool) -> bool:
    """Exact support-level null-space property of A on one sorted support.

    For each sign pattern b on the support, maximize b . w_support - sum(p + q)
    over A_support w_support + A_off (p - q) = 0, |w_support|_inf <= 1 and
    p, q in [0, 1].  At an optimum p . q = 0, so sum(p + q) = ||w_off||_1.
    The property holds iff every optimum is (up to LP slack) nonpositive: a
    strictly positive optimum scales to a violating direction on the sphere
    and vice versa.  The nonnegative model drops q (q = 0) and takes the
    single pattern b = -1: no null-space w that is nonnegative off the
    support has a negative sum.
    """
    m, n = A.shape
    k = len(support)
    if k == 0 or m == n:  # vacuous, or null(A) = {0} at full row rank
        return True
    A_off = np.delete(A, support, axis=1)
    A_eq = np.hstack([A[:, support], A_off] if nonneg else [A[:, support], A_off, -A_off])
    bounds = [(-1, 1)] * k + [(0, 1)] * (A_eq.shape[1] - k)
    # b and -b give the same optimum (w -> -w), so fix the first sign
    patterns = ([(-1.0,) * k] if nonneg else
                [(1.0,) + rest for rest in itertools.product((1.0, -1.0), repeat=k - 1)])
    for b in patterns:
        cost = np.concatenate([-np.array(b), np.ones(A_eq.shape[1] - k)])
        res = linprog(cost, A_eq=A_eq, b_eq=np.zeros(m), bounds=bounds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"null-space LP failed with status {res.status}: {res.message}")
        if -float(res.fun) > _LP_SLACK:
            return False
    return True


def lp_strong_holds(A: np.ndarray, k: int, nonneg: bool = False) -> bool:
    """The support-level LP property on every support of size k."""
    return all(lp_support_holds(A, np.array(support), nonneg)
               for support in itertools.combinations(range(A.shape[1]), k))


def basis_lp_max(c_max, A_ub, b_ub, bounds):
    res = linprog(-np.asarray(c_max), A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return -float(res.fun)


def basis_support_holds(A, support, nonneg=False):
    """The support-level property decided over a null-space basis N.

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
