"""Golden bits of the direct and weak threshold solves.

The direct kernels (the per-beta profiles, the bounded Brent replay, the
scalar erfinv path) are rewritten for speed under the rule that they return
the same bits.  These values were recorded before such a rewrite, from the
scipy minimize_scalar route; a later change that moves any of them by even
one ulp fails here instead of drifting silently.
"""

import numpy as np
import pytest

from l1lab import numerics as nm
from l1lab import threshold_bisect
from l1lab import thresholds_general as tg
from l1lab import thresholds_nonneg as tn

# (kind, alpha) -> (beta, condition_margin, (c3, gamma, nu1, nu2) or None), as float.hex
GOLDEN = {
    ("weak", 0.1): ("0x1.365b72862f59ap-6", "-0x1.f86b2b46e0000p-21", None),
    ("weak", 0.5): ("0x1.8af238a979e17p-3", "-0x1.0edb1b7800000p-25", None),
    ("weak", 0.9): ("0x1.38800717acc4fp-1", "-0x1.7c857ce600000p-22", None),
    ("weak", 0.999): ("0x1.ebb564c47a17fp-1", "-0x1.10f5ca7000000p-22", None),
    ("weak_nonneg", 0.1): ("0x1.8ab94408d8ec9p-6", "-0x1.1730568aba000p-16", None),
    ("weak_nonneg", 0.5): ("0x1.1dced3925bb7ap-2", "-0x1.4075a0f9c0000p-18", None),
    ("weak_nonneg", 0.9): ("0x1.9ff15a527a205p-1", "-0x1.f2434ba800000p-20", None),
    ("weak_nonneg", 0.999): ("0x1.fef9e538476f2p-1", "-0x1.0559ec0d00000p-21", None),
    ("sectional", 0.1): ("0x1.6f74361134050p-7", "-0x1.70f646e82c000p-16",
        ("0x0.0p+0", "0x1.43cb724b68f04p-3",
         "0x1.ca0646dfbc68cp+0", "0x0.0p+0")),
    ("sectional", 0.5): ("0x1.a2cb6e978d4fdp-4", "-0x1.ca0fd99060000p-18",
        ("0x0.0p+0", "0x1.6a09016006f4ap-2",
         "0x1.d4d3943d61c6ep-1", "0x0.0p+0")),
    ("sectional", 0.9): ("0x1.3b56123a29c78p-2", "-0x1.2ac1d40000000p-26",
        ("0x0.0p+0", "0x1.e5b9d0a165ef6p-2",
         "0x1.59c29b30d1c5bp-2", "0x0.0p+0")),
    ("sectional", 0.999): ("0x1.ebbf0985f06f7p-2", "-0x1.42fa333800000p-22",
        ("0x0.0p+0", "0x1.ffbe687e9b311p-2",
         "0x1.0446f733daaf1p-5", "0x0.0p+0")),
    ("strong", 0.1): ("0x1.c604dd204e767p-9", "-0x1.03c1f6a520000p-15",
        ("0x0.0p+0", "0x1.43c91814cf67fp-3",
         "0x1.e5c45e9dde075p+0", "0x1.18af21266fd95p+4")),
    ("strong", 0.5): ("0x1.2262e2e164671p-5", "-0x1.ffdfc83770000p-17",
        ("0x0.0p+0", "0x1.6a07e6882b856p-2",
         "0x1.f324f363860bbp-1", "0x1.732b84fa171eap+1")),
    ("strong", 0.9): ("0x1.02db2edd83ba7p-3", "-0x1.224682ba40000p-18",
        ("0x0.0p+0", "0x1.e5b94013857c4p-2",
         "0x1.667a540c24c19p-2", "0x1.20c869bb1b95fp-1")),
    ("strong", 0.999): ("0x1.ce88c0a7fc07fp-3", "-0x1.99f2530000000p-25",
        ("0x0.0p+0", "0x1.ffbe70fc7a77dp-2",
         "0x1.054ac09e35117p-5", "0x1.3c9dbb0b507bbp-5")),
    ("strong_nonneg", 0.1): ("0x1.0380c49328a27p-8", "-0x1.824cf7f2b8000p-15",
        ("0x0.0p+0", "0x1.43c523bcc4fb3p-3",
         "0x1.b23bd9c7d9254p+0", "0x1.df2701923dd75p+3")),
    ("strong_nonneg", 0.5): ("0x1.6eaefaa092872p-5", "-0x1.0210a538e0000p-16",
        ("0x0.0p+0", "0x1.6a07e246a94b1p-2",
         "0x1.861aca867d12fp-1", "0x1.11d5f718a7184p+1")),
    ("strong_nonneg", 0.9): ("0x1.7e98d8a0d63dap-3", "-0x1.4b7705ad00000p-19",
        ("0x0.0p+0", "0x1.e5b97e59056e2p-2",
         "0x1.9ce8cf20f8cefp-3", "0x1.4160d422a183dp-2")),
    ("strong_nonneg", 0.999): ("0x1.b1be01e38528ap-2", "-0x1.f239056800000p-24",
        ("0x0.0p+0", "0x1.ffbe6eb1fac00p-2",
         "0x1.04f65b995980bp-7", "0x1.4a3279e451543p-7")),
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
            assert strong(nu).hex() == want == tg.strong_direct_value(beta, nu).hex()
            want = _nonneg_value_one_shot(beta, nu).hex()
            assert nonneg(nu).hex() == want == tn.strong_nonneg_direct_value(beta, nu).hex()
