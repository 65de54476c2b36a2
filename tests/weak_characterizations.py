"""The paper's erfinv characterizations of the weak boundaries, a second
route to the curves the library computes as statistical dimensions.

Each characterization is an equation in (alpha, beta) whose root in alpha
on (beta, 1) is the exact weak boundary alpha_w(beta); alpha_w solves it
with scipy's brentq.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfinv

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def weak_characterization(alpha, beta):
    """(1-b) sqrt(2/pi) exp(-erfinv(u)^2) / a - sqrt(2) erfinv(u),
    u = (1-a)/(1-b): negative below the general weak boundary, positive
    above it."""
    u = (1.0 - alpha) / (1.0 - beta)
    if u >= 1.0:  # alpha at or below beta: the deep-failure limit
        return -math.inf
    e = float(erfinv(u))
    return (1.0 - beta) * SQRT_2_OVER_PI * math.exp(-e * e) / alpha - SQRT2 * e


def weak_nonneg_characterization(alpha, beta):
    """(1-b) sqrt(1/(2 pi)) exp(-erfinv(u)^2) / a - sqrt(2) erfinv(u),
    u = 2(1-a)/(1-b) - 1: the nonnegative variant."""
    u = 2.0 * (1.0 - alpha) / (1.0 - beta) - 1.0
    if u >= 1.0:   # alpha at or below beta: the deep-failure limit
        return -math.inf
    if u <= -1.0:  # alpha at or above 1: the deep-success limit
        return math.inf
    e = float(erfinv(u))
    return (1.0 - beta) * math.exp(-e * e) / (SQRT2PI * alpha) - SQRT2 * e


def alpha_w(characterization, beta):
    """The root in alpha on (beta, 1) of a weak characterization."""
    lo = max(beta + 1e-12 * (1.0 - beta), float(np.nextafter(beta, 1.0)))
    return brentq(lambda a: characterization(a, beta), lo, 1.0 - 1e-13, xtol=1e-13)
