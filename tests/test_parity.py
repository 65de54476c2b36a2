"""Closed forms against the quadrature oracle over the optimizer's whole box."""

import math

import numpy as np

from l1lab.lift_core import B_MAX, LOG_C3_MAX, LOG_C3_MIN, LiftParams, exp_set_term_oracle
from l1lab.parity import AUDITED


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_closed_forms_match_the_oracle_over_the_optimizer_box():
    # parity.sample_params keeps c3 <= 3, b <= 0.45 and nu <= 3, while lifted
    # optima reach c3 ~ 111, b within 4e-5 of 1/2 and nu2 ~ 66.  Here log c3
    # spans the optimizer's bounds, the gap 1/2 - b is log-uniform down to
    # 1/2 - B_MAX (dense near 1/2), and the nus are log-uniform up to 14 and
    # 400 (small nus keep the moments finite near b = 1/2).  This seed draws
    # a strong_nonneg tuple at b = 0.49979 where the oracle is off by 5.1e-6
    # if a short quadrature segment keeps one panel while the rest converge.
    rng = np.random.default_rng(7)
    for kind, spec in AUDITED.items():
        finite = 0
        for _ in range(300):
            c3 = math.exp(rng.uniform(LOG_C3_MIN, LOG_C3_MAX))
            b = 0.5 - log_uniform(rng, 0.5 - B_MAX, 0.5 - 1e-7)
            nu1 = log_uniform(rng, 1e-4, 14.0)
            nu2 = log_uniform(rng, 1e-4, 400.0) if kind != "sectional" else 0.0
            beta = rng.uniform(0.01, 0.95 if kind == "sectional" else 0.49)
            params = LiftParams(c3=c3, gamma=c3 / (4.0 * b), nu1=nu1, nu2=nu2)
            closed = spec.set_term_at(beta, params)
            if math.isinf(closed):  # the moment overflows a double
                continue
            finite += 1
            oracle = exp_set_term_oracle(spec.integrand, params, beta)
            assert abs(closed - oracle) <= 1e-6 * abs(oracle), (kind, beta, params)
        assert finite >= 100, (kind, finite)
