"""A bounded Brent minimizer on Python floats that replays scipy's
minimize_scalar(method="bounded") step for step.

The library's direct minima once ran on it; they now take closed-form
Newton steps (numerics.newton_minimum), so it has left l1lab.  It stays
here with its replay tests in test_numerics.py, which pin it to scipy
iterate for iterate, until they can be retired.
"""

import math
from typing import Callable, NamedTuple


class ScalarResult(NamedTuple):
    """Outcome of minimize_bounded: best point, its value, evaluation count."""

    x: float
    fun: float
    nfev: int


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _unit_sign(v: float) -> float:
    """np.sign(v) + (v == 0) for finite v: zero counts as positive."""
    return -1.0 if v < 0 else 1.0


def minimize_bounded(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xatol: float = 1e-5,
    maxiter: int = 500,
) -> ScalarResult:
    """Bounded Brent minimization on Python floats over finite lo <= hi.

    Replays scipy.optimize.minimize_scalar(method="bounded") step for step,
    so for the same f it visits the same points and returns the same x, fun
    and nfev: the same first point at the golden section of [lo, hi], the
    same parabolic and golden steps with their acceptance, sign and tie
    rules, the same sqrt(2.2e-16) relative tolerance and the same stop after
    maxiter evaluations.  What it drops is scipy's per-step numpy scalar
    bookkeeping, which costs more than a closed-form direct objective.
    """
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _unit_sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        # rat and xm - xf stay finite: the bounds are finite, and a NaN or
        # inf value of f only ever fails the parabola's acceptance test
        x = xf + _unit_sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break

    return ScalarResult(x=xf, fun=fx, nfev=num)
