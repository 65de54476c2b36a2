"""Phase-transition thresholds of l1-minimization sparse recovery.

Computes lower bounds on the strong and sectional thresholds (and the exact
weak boundary) of basis pursuit for Gaussian measurement ensembles, for both
general and a priori nonnegative unknowns, via lifted exponential-moment
bounds and their direct (c3 -> 0) specializations; and verifies them
empirically with a basis-pursuit solver and exhaustive null-space oracles at
small scale.
"""

from .config import Config, load_config
from .lift_core import (
    LiftParams,
    ThresholdResult,
    exp_set_term_oracle,
    i_sph,
    sphere_gamma_hat,
    threshold_bisect,
)
from .thresholds_general import (
    sectional_set_term_direct,
    strong_t_integrand,
    weak_alpha_of_beta,
)
from .thresholds_nonneg import (
    nonneg_t_integrand,
    strong_nonneg_direct_value,
    weak_nonneg_alpha_of_beta,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "LiftParams",
    "ThresholdResult",
    "exp_set_term_oracle",
    "i_sph",
    "load_config",
    "nonneg_t_integrand",
    "sectional_set_term_direct",
    "sphere_gamma_hat",
    "strong_nonneg_direct_value",
    "strong_t_integrand",
    "threshold_bisect",
    "weak_alpha_of_beta",
    "weak_nonneg_alpha_of_beta",
]
