"""Anatomy of one lifted-bound evaluation.

A point (alpha, beta) is certified recoverable when lift parameters exist
making

    total = -c3/2 + I_set(c3, beta) + I_sph(c3, alpha) < 0.

This script fixes the sectional kind at alpha = 0.5 and steps beta across
the threshold, showing the total at the certifying parameters p* (those
the threshold search reports, with c3 well away from zero: the lifted
bound genuinely beats the direct one) changing sign, affine in beta, and
the closed-form set term agreeing with the quadrature oracle.
"""

import numpy as np

from l1lab import exp_set_term_oracle, i_sph
from l1lab.thresholds_general import SECTIONAL, sectional_margin_lifted

ALPHA = 0.5


def main():
    print(f"sectional kind at alpha={ALPHA}: the lifted threshold is ~0.1045\n")
    print(f"{'beta':>6s} {'total at p*':>12s} feasible")
    for beta in (0.09, 0.1, 0.1045, 0.105, 0.11):
        margin, params = sectional_margin_lifted(ALPHA, beta)
        print(f"{beta:6.4f} {margin:12.3e} {margin < 0}")
    print(f"p*: c3 = {params.c3:.4f}, gamma = {params.gamma:.4f}, nu = {params.nu1:.4f}")

    print("\nclosed form vs quadrature oracle at p* and beta=0.1045:")
    closed = SECTIONAL.set_term_at(0.1045, params)
    oracle = exp_set_term_oracle(SECTIONAL.integrand, params, 0.1045)
    print(f"  closed   {closed:.12f}")
    print(f"  oracle   {oracle:.12f}")
    print(f"  rel dev  {abs(closed - oracle)/abs(oracle):.2e}")

    sph = i_sph(params.c3, ALPHA)
    total = -0.5 * params.c3 + closed + sph
    print(f"\nmaster condition at that point: -c3/2 = {-params.c3/2:.6f}, "
          f"I_set = {closed:.6f}, I_sph = {sph:.6f}")
    print(f"total = {total:.6f} (feasible: {total < 0.0})")


if __name__ == "__main__":
    main()
