"""Exact null-space certificates at small scale.

The sectional/strong properties of a single matrix A decide recovery for
all right-hand sides at once: if the strong property holds at sparsity k,
basis pursuit recovers every k-sparse vector measured through A.  At
small n the properties can be decided exactly from the vertices of
null(A) ∩ B_1, with no LP and one enumeration per matrix (each matrix below
is asked six questions; the five after the first reuse its stored
vertices), which makes them an oracle for the solver and a finite-size
illustration of the threshold ordering.
"""

import numpy as np

from l1lab.empirical import (
    ProblemInstance,
    sectional_nullspace_holds,
    solve_basis_pursuit,
    strong_nullspace_holds,
)

N, M = 16, 12  # alpha = 0.75


def main():
    rng = np.random.default_rng(7)
    counts = {1: 0, 2: 0, 3: 0}
    nonneg_counts = {1: 0, 2: 0, 3: 0}
    matrices = 12
    for _ in range(matrices):
        A = rng.standard_normal((M, N))
        for k in counts:
            counts[k] += strong_nullspace_holds(A, k)
            nonneg_counts[k] += strong_nullspace_holds(A, k, nonneg=True)
    print(f"strong property over {matrices} Gaussian matrices ({M}x{N}):")
    for k in counts:
        print(f"  k={k}: general {counts[k]:2d}/{matrices}   "
              f"nonnegative {nonneg_counts[k]:2d}/{matrices}")
    print("(fractions shrink with k and the nonnegative variant always"
          " holds at least as often)\n")

    # a matrix whose strong property holds at k=1 recovers EVERY 1-sparse x
    A = rng.standard_normal((M, N))
    while not strong_nullspace_holds(A, 1):
        A = rng.standard_normal((M, N))
    print("found A with the strong property at k=1;"
          " recovering all 1-sparse unit vectors:")
    misses = 0
    for i in range(N):
        for sign in (1.0, -1.0):
            x = np.zeros(N)
            x[i] = sign * 1.7
            inst = ProblemInstance(A=A, x_true=x, support=np.array([i]),
                                   signs=np.array([sign]), y=A @ x, seed=0)
            misses += not solve_basis_pursuit(inst).recovered
    print(f"  {2 * N - misses}/{2 * N} recovered (expected all)\n")

    support = [0, 5]
    holds = sectional_nullspace_holds(A, support)
    print(f"sectional property on support {support}: {holds}")
    print("(support-level certificate: recovery for every sign pattern"
          " on that support)")


if __name__ == "__main__":
    main()
