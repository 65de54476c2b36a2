"""Golden bits of the direct and weak threshold solves.

GOLDEN pins the bits of 20 direct and weak solves of the root route
(Newton minima over nu, one bracketed root solve on beta), so that a later
change that moves any of them by even one ulp fails here instead of
drifting silently.  BISECTION_BETA keeps the betas of the bisection route
it replaced: the root route must stay within tol_beta of them, with a
margin below -eps.  The direct values themselves (the per-beta profiles)
keep the bits of their original one-shot formulas.
"""

import numpy as np
import pytest

from l1lab import numerics as nm
from l1lab import threshold_bisect
from l1lab.config import DEFAULT
from l1lab import thresholds_general as tg
from l1lab import thresholds_nonneg as tn

# (kind, alpha) -> (beta, condition_margin, (c3, gamma, nu1, nu2) or None), as float.hex,
# from the root route (Newton minima, one bracketed root solve on beta)
GOLDEN = {
    ("weak", 0.1): ("0x1.365c6e5838dbap-6", "-0x1.23424fa000000p-28", None),
    ("weak", 0.5): ("0x1.8af23aa4ada6bp-3", "-0x1.1e08bc2000000p-27", None),
    ("weak", 0.9): ("0x1.387f7ad773a9bp-1", "-0x1.59e2671b80000p-19", None),
    ("weak", 0.999): ("0x1.ebb565d96d72bp-1", "-0x1.0f364a0200000p-22", None),
    ("weak_nonneg", 0.1): ("0x1.8ad04ec922185p-6", "-0x1.d886f46180000p-23", None),
    ("weak_nonneg", 0.5): ("0x1.1dcfee3067eb4p-2", "-0x1.809f7c1a00000p-22", None),
    ("weak_nonneg", 0.9): ("0x1.9ff1c7839f598p-1", "-0x1.54af810000000p-29", None),
    ("weak_nonneg", 0.999): ("0x1.fefa01bf05d80p-1", "-0x1.06cc03f800000p-24", None),
    ("sectional", 0.1): ("0x1.6f84c716cb4a4p-7", "-0x1.9eef50d000000p-26",
        ("0x0.0p+0", "0x1.43d1348595402p-3",
         "0x1.ca023eaebdfe1p+0", "0x0.0p+0")),
    ("sectional", 0.5): ("0x1.a2ce540196311p-4", "-0x1.8aa9461200000p-21",
        ("0x0.0p+0", "0x1.6a09cdbd5f5bbp-2",
         "0x1.d4d1f4534fce1p-1", "0x0.0p+0")),
    ("sectional", 0.9): ("0x1.3b55fbb7a57bdp-2", "-0x1.c25362f000000p-23",
        ("0x0.0p+0", "0x1.e5b9ca2d794dap-2",
         "0x1.59c2c820dfc0ep-2", "0x0.0p+0")),
    ("sectional", 0.999): ("0x1.ebbf4fbb483bcp-2", "-0x1.09fdce1000000p-22",
        ("0x0.0p+0", "0x1.ffbe6a467e5a5p-2",
         "0x1.04436de148982p-5", "0x0.0p+0")),
    ("strong", 0.1): ("0x1.c6225155a04aep-9", "-0x1.6d9b59e600000p-23",
        ("0x0.0p+0", "0x1.43d12ab7a9c1cp-3",
         "0x1.e5be8c0d2d2dep+0", "0x1.18a2d44099ec8p+4")),
    ("strong", 0.5): ("0x1.22686672f3f3fp-5", "-0x1.eb45f00000000p-28",
        ("0x0.0p+0", "0x1.6a09e62a8afedp-2",
         "0x1.f3208d0907868p-1", "0x1.7324d6e42a24bp+1")),
    ("strong", 0.9): ("0x1.02dd2e320c6a2p-3", "-0x1.e109912000000p-26",
        ("0x0.0p+0", "0x1.e5b9d0464210dp-2",
         "0x1.6676204e6d367p-2", "0x1.20c3f349d3388p-1")),
    ("strong", 0.999): ("0x1.ce868df03b08bp-3", "-0x1.8f48034400000p-22",
        ("0x0.0p+0", "0x1.ffbe661c2cb0bp-2",
         "0x1.056098ccf7618p-5", "0x1.3cb8f584c09ccp-5")),
    ("strong_nonneg", 0.1): ("0x1.039a5927ab8c2p-8", "-0x1.a965442c00000p-22",
        ("0x0.0p+0", "0x1.43d11b8e304e3p-3",
         "0x1.b232f4e2b668dp+0", "0x1.df065420a7150p+3")),
    ("strong_nonneg", 0.5): ("0x1.6eb68311cd935p-5", "-0x1.cd9d290000000p-27",
        ("0x0.0p+0", "0x1.6a09e5f48c729p-2",
         "0x1.86167729c43acp-1", "0x1.11d0643fb4e2ep+1")),
    ("strong_nonneg", 0.9): ("0x1.7e9ae8467d199p-3", "-0x1.16b3ed0000000p-29",
        ("0x0.0p+0", "0x1.e5b9d1255b9a9p-2",
         "0x1.9ce519f814d1cp-3", "0x1.415d575a319e9p-2")),
    ("strong_nonneg", 0.999): ("0x1.b1bf6fc1cbe2bp-2", "-0x1.a5976c8000000p-28",
        ("0x0.0p+0", "0x1.ffbe7261b9dd4p-2",
         "0x1.04ec5303fe139p-7", "0x1.4a25bbc98b5bep-7")),
}

# (kind, alpha) -> beta as float.hex, from the bisection route that the root
# route replaced (33-point grid plus bounded Brent over nu, 18-19 probes on beta)
BISECTION_BETA = {
    ("weak", 0.1): "0x1.365b72862f59ap-6", ("weak", 0.5): "0x1.8af238a979e17p-3",
    ("weak", 0.9): "0x1.38800717acc4fp-1", ("weak", 0.999): "0x1.ebb564c47a17fp-1",
    ("weak_nonneg", 0.1): "0x1.8ab94408d8ec9p-6", ("weak_nonneg", 0.5): "0x1.1dced3925bb7ap-2",
    ("weak_nonneg", 0.9): "0x1.9ff15a527a205p-1", ("weak_nonneg", 0.999): "0x1.fef9e538476f2p-1",
    ("sectional", 0.1): "0x1.6f74361134050p-7", ("sectional", 0.5): "0x1.a2cb6e978d4fdp-4",
    ("sectional", 0.9): "0x1.3b56123a29c78p-2", ("sectional", 0.999): "0x1.ebbf0985f06f7p-2",
    ("strong", 0.1): "0x1.c604dd204e767p-9", ("strong", 0.5): "0x1.2262e2e164671p-5",
    ("strong", 0.9): "0x1.02db2edd83ba7p-3", ("strong", 0.999): "0x1.ce88c0a7fc07fp-3",
    ("strong_nonneg", 0.1): "0x1.0380c49328a27p-8", ("strong_nonneg", 0.5): "0x1.6eaefaa092872p-5",
    ("strong_nonneg", 0.9): "0x1.7e98d8a0d63dap-3", ("strong_nonneg", 0.999): "0x1.b1be01e38528ap-2",
}


@pytest.mark.parametrize("kind, alpha", sorted(GOLDEN), ids=lambda v: str(v))
def test_direct_solve_bits_are_pinned(kind, alpha):
    beta, margin, params = GOLDEN[(kind, alpha)]
    result = threshold_bisect(alpha, kind, "direct")
    assert result.beta.hex() == beta
    assert float(result.condition_margin).hex() == margin
    p = result.params_at_optimum
    got = None if p is None else tuple(float(v).hex() for v in (p.c3, p.gamma, p.nu1, p.nu2))
    assert got == params


@pytest.mark.parametrize("kind, alpha", sorted(BISECTION_BETA), ids=lambda v: str(v))
def test_direct_solve_within_tol_beta_of_the_bisection_route(kind, alpha):
    result = threshold_bisect(alpha, kind, "direct")
    assert abs(result.beta - float.fromhex(BISECTION_BETA[(kind, alpha)])) <= DEFAULT.tol_beta
    assert result.condition_margin < -DEFAULT.feasibility_margin


# The direct values as written before the per-beta profiles: every term
# recomputed on each call through numpy 0-d arrays (whose ** 2 is a product).

def _phi_0d(x):
    return float(np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / nm.SQRT2PI)


def _strong_value_one_shot(beta, nu):
    c = nm.SQRT2 * nm.erfinv(np.asarray(1.0 - beta))
    nu = min(nu, c)
    q_c = float(0.5 * nm.erfc(np.asarray(c, dtype=float) / nm.SQRT2))
    q_nu = float(0.5 * nm.erfc(np.asarray(nu, dtype=float) / nm.SQRT2))
    phi_c, phi_nu = _phi_0d(c), _phi_0d(nu)
    upper = 2.0 * ((1.0 + nu * nu) * q_c + (c + 2.0 * nu) * phi_c)
    mid = 2.0 * ((1.0 + nu * nu) * (q_nu - q_c) + (2.0 * nu - c) * phi_c - nu * phi_nu)
    return upper + mid


def _nonneg_value_one_shot(beta, nu1):
    c = -nm.SQRT2 * nm.erfinv(np.asarray(1.0 - 2.0 * beta))
    phi_c, phi_nu = _phi_0d(c), _phi_0d(nu1)
    cdf_c = 0.5 * (1.0 + float(nm.erf(c / nm.SQRT2)))
    upper_prob = 1.0 - 0.5 * (1.0 + float(nm.erf(nu1 / nm.SQRT2)))
    lower = (1.0 + nu1 * nu1) * cdf_c + (2.0 * nu1 - c) * phi_c
    upper = (1.0 + nu1 * nu1) * upper_prob - nu1 * phi_nu
    return lower + upper


@pytest.mark.parametrize("module", [tg, tn], ids=["general", "nonneg"])
def test_phi_keeps_the_bits_of_the_array_formula(module):
    # both direct kernels call the one density in numerics
    assert module.phi is nm.phi
    for x in np.random.default_rng(11).uniform(-9.0, 9.0, 20_000).tolist():
        assert nm.phi(x).hex() == _phi_0d(x).hex(), x


def test_direct_values_keep_the_bits_of_the_one_shot_formulas():
    rng = np.random.default_rng(12)
    for beta in rng.uniform(1e-4, 0.4999, 40).tolist():
        strong = tg._strong_direct_profile(beta)[1]
        nonneg = tn._nonneg_direct_profile(beta)
        for nu in rng.uniform(0.0, 6.0, 100).tolist():
            want = _strong_value_one_shot(beta, nu).hex()
            assert strong(nu)[0].hex() == want == tg.strong_direct_value(beta, nu).hex()
            want = _nonneg_value_one_shot(beta, nu).hex()
            assert nonneg(nu)[0].hex() == want == tn.strong_nonneg_direct_value(beta, nu).hex()
