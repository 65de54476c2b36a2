"""Golden bits of the direct and weak threshold solves.

GOLDEN pins the bits of 20 direct and weak solves of the Newton route
(Newton minima over the multiplier, one Newton solve on beta from the
floor), so that a later change that moves any of them by even one ulp
fails here instead of drifting silently.  BISECTION_BETA keeps the betas
of the bisection route that the root solves replaced: the Newton route
must stay within tol_beta of them, with a margin below -eps.  The direct
values themselves (the per-beta profiles) keep the bits of their original
one-shot formulas.
"""

import numpy as np
import pytest

from l1lab import numerics as nm
from l1lab import threshold_bisect
from l1lab.config import DEFAULT
from l1lab import thresholds_general as tg
from l1lab import thresholds_nonneg as tn

# (kind, alpha) -> (beta, condition_margin, (c3, gamma, nu1, nu2) or None), as float.hex,
# from the Newton route (Newton minima, one Newton solve on beta)
GOLDEN = {
    ("weak", 0.1): ("0x1.365c6ef280532p-6", "-0x1.12e0c00000000p-29", None),
    ("weak", 0.5): ("0x1.8af23b2ee8516p-3", "-0x1.12e0bd8000000p-29", None),
    ("weak", 0.9): ("0x1.38801d541e195p-1", "-0x1.12e0bf0000000p-29", None),
    ("weak", 0.999): ("0x1.ebb60c6104794p-1", "-0x1.12e0c60000000p-29", None),
    ("weak_nonneg", 0.1): ("0x1.8ad09d1cd63eap-6", "-0x1.12e0cac000000p-29", None),
    ("weak_nonneg", 0.5): ("0x1.1dd004fb1273fp-2", "-0x1.12e0bf0000000p-29", None),
    ("weak_nonneg", 0.9): ("0x1.9ff1c78ad71c5p-1", "-0x1.12e6b40000000p-29", None),
    ("weak_nonneg", 0.999): ("0x1.fefa05b68a9d6p-1", "-0x1.12ffbc0000000p-29", None),
    ("sectional", 0.1): ("0x1.6f84cb5dadcbfp-7", "-0x1.12e63c0000000p-29",
        ("0x0.0p+0", "0x1.43d1360227c97p-3",
         "0x1.ca023da44956fp+0", "0x0.0p+0")),
    ("sectional", 0.5): ("0x1.a2cead403808ap-4", "-0x1.12e2240000000p-29",
        ("0x0.0p+0", "0x1.6a09e656c59a9p-2",
         "0x1.d4d1c24289a44p-1", "0x0.0p+0")),
    ("sectional", 0.9): ("0x1.3b5614074cd4ep-2", "-0x1.12f9840000000p-29",
        ("0x0.0p+0", "0x1.e5b9d12597412p-2",
         "0x1.59c2974e1de83p-2", "0x0.0p+0")),
    ("sectional", 0.999): ("0x1.ebc094d7c3af0p-2", "-0x1.1301d90000000p-29",
        ("0x0.0p+0", "0x1.ffbe72853cad4p-2",
         "0x1.0432fefff69fep-5", "0x0.0p+0")),
    ("strong", 0.1): ("0x1.c62278c990b13p-9", "-0x1.39c2c2e000000p-27",
        ("0x0.0p+0", "0x1.43d13587a32f8p-3",
         "0x1.e5be8440d9ff2p+0", "0x1.18a2c3c7990b2p+4")),
    ("strong", 0.5): ("0x1.226866ecfbab0p-5", "-0x1.12e0eb0000000p-29",
        ("0x0.0p+0", "0x1.6a09e656c5ae2p-2",
         "0x1.f3208ca7b444ep-1", "0x1.7324d6505ec4ep+1")),
    ("strong", 0.9): ("0x1.02dd3149efc36p-3", "-0x1.1355160000000p-29",
        ("0x0.0p+0", "0x1.e5b9d12591880p-2",
         "0x1.667619cbed04cp-2", "0x1.20c3ec6027b75p-1")),
    ("strong", 0.999): ("0x1.ce891008996bap-3", "-0x1.1440e70000000p-29",
        ("0x0.0p+0", "0x1.ffbe728528bc6p-2",
         "0x1.0547a90c8fc17p-5", "0x1.3c99e07c132b9p-5")),
    ("strong_nonneg", 0.1): ("0x1.039a91b3f7d8bp-8", "-0x1.12e0c28000000p-29",
        ("0x0.0p+0", "0x1.43d136022878ap-3",
         "0x1.b232e13a4056ep+0", "0x1.df060be9bdafap+3")),
    ("strong_nonneg", 0.5): ("0x1.6eb6848121997p-5", "-0x1.12e62d0000000p-29",
        ("0x0.0p+0", "0x1.6a09e656c55a0p-2",
         "0x1.86167656ea87bp-1", "0x1.11d0632ff8a85p+1")),
    ("strong_nonneg", 0.9): ("0x1.7e9ae848031c4p-3", "-0x1.12e0bf0000000p-29",
        ("0x0.0p+0", "0x1.e5b9d12598cd7p-2",
         "0x1.9ce519f5578fcp-3", "0x1.415d57579dd23p-2")),
    ("strong_nonneg", 0.999): ("0x1.b1bf7d86a2063p-2", "-0x1.12f6d10000000p-29",
        ("0x0.0p+0", "0x1.ffbe72853d5dcp-2",
         "0x1.04ebf2f045743p-7", "0x1.4a25411641d6bp-7")),
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
