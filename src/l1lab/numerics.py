"""Special functions and generic numerical routines used by every bound.

Everything here is pure and reentrant: no shared mutable state, safe for
concurrent use.  Special functions delegate to scipy.special (double
precision, accepts scalars or arrays).  The quadrature and two scipy
replays are implemented here because they carry contracts the generic
library routines do not:

* breakpoint-aligned quadrature panels with a doubling convergence
  certificate;
* a simplex search on Python floats whose iterates are bit-for-bit those
  of scipy's bounded Nelder-Mead (the lifted solves);
* a bounded Brent search on Python floats whose iterates are bit-for-bit
  those of scipy's minimize_scalar(method="bounded") (the direct 1-D
  minima, through scalar_minimum).

Both replays drop scipy's per-call bookkeeping, which costs more than the
closed-form objectives they minimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.optimize as _opt
import scipy.special as _sp

from .errors import DomainError, NonConvergentError, NoSignChangeError

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class Bracket(NamedTuple):
    """An interval [lo, hi] with lo < hi; for root finding the endpoints must
    straddle a sign change."""

    lo: float
    hi: float


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls Gaussian-weight quadrature.

    half_width is measured in standard deviations of the N(0,1) weight; the
    integral is truncated to [-half_width, half_width].  Callers integrating
    growing exponentials must widen the window so the full integrand has
    decayed at the cut (see gauss_expectation's precondition).
    """

    half_width: float = 10.0
    panels: int = 64
    rel_tol: float = 1e-9
    max_panels: int = 16384

    def __post_init__(self):
        if self.half_width < 6:
            raise DomainError("half_width must be >= 6 standard deviations")
        if self.panels < 64:
            raise DomainError("panels must be >= 64")
        if self.rel_tol <= 0:
            raise DomainError("rel_tol must be positive")


def erf(x):
    """Error function, |error| <= 1e-14 on finite reals; exactly odd."""
    return _sp.erf(x)


def erfc(x):
    """Complementary error function 1 - erf(x), computed without cancellation."""
    return _sp.erfc(x)


def erfcx(x):
    """Scaled complementary error function exp(x**2) * erfc(x)."""
    return _sp.erfcx(x)


def erfinv(p):
    """Inverse of erf on (-1, 1).

    Raises DomainError for |p| >= 1 (the spec of this routine is total only
    on the open interval; infinities are never returned).
    """
    if isinstance(p, float):  # Python floats and np.float64
        if abs(p) >= 1.0:
            raise DomainError("erfinv requires |p| < 1")
        return float(_sp.erfinv(p))
    arr = np.asarray(p, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise DomainError("erfinv requires |p| < 1")
    out = _sp.erfinv(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-10) -> float:
    """Root of a continuous scalar function inside a sign-changing bracket.

    Brent's method: bisection with inverse-quadratic acceleration, never
    leaves the bracket.  Raises NoSignChangeError when f(lo) and f(hi) have
    the same (nonzero) sign.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise DomainError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoSignChangeError(
            f"f has the same sign at both bracket ends: f({lo})={flo:.3e}, f({hi})={fhi:.3e}"
        )
    return float(_opt.brentq(f, lo, hi, xtol=tol, maxiter=300))


class SimplexResult(NamedTuple):
    """Outcome of nelder_mead: best vertex, its value, evaluation and
    iteration counts, and whether the simplex tolerances were met."""

    x: list
    fun: float
    nfev: int
    nit: int
    success: bool


class _Exhausted(Exception):
    """The evaluation budget ran out part-way through an iteration."""


# reflection, expansion, contraction and shrink coefficients (non-adaptive)
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


def _clip_point(x, lo, hi):
    """Clip x into [lo, hi] coordinate-wise with numpy.clip's semantics:
    NaN passes through and a tie returns the bound (so -0.0 against a 0.0
    bound becomes 0.0)."""
    out = []
    for v, l, h in zip(x, lo, hi):
        if not (v > l or v != v):
            v = l
        if not (v < h or v != v):
            v = h
        out.append(v)
    return out


def _trial(xbar, worst, a, b, lo, hi):
    """The clipped trial point a*xbar - b*worst.

    Reflection, expansion and both contractions are all of this form;
    negating a coefficient is exact, so (1-psi)*xbar - (-psi)*worst has the
    same bits as scipy's (1-psi)*xbar + psi*worst."""
    out = []
    for c, w, l, h in zip(xbar, worst, lo, hi):
        v = a * c - b * w
        if not (v > l or v != v):
            v = l
        if not (v < h or v != v):
            v = h
        out.append(v)
    return out


def _converged(sim, fsim, xatol, fatol):
    """scipy's test: max |vertex - best| <= xatol and max |f0 - f| <= fatol
    (a NaN difference fails it, as numpy's max propagates NaN)."""
    best = sim[0]
    for row in sim[1:]:
        for v, b in zip(row, best):
            if not abs(v - b) <= xatol:
                return False
    f0 = fsim[0]
    for fj in fsim[1:]:
        if not abs(f0 - fj) <= fatol:
            return False
    return True


def _order(sim, fsim):
    """Vertices and values sorted by value with np.argsort.

    numpy's default argsort is not stable, and ties are common (vertices
    clipped onto the same bound point, inf plateaus); only its own
    tie-break keeps the search on the path scipy takes."""
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def nelder_mead(
    f: Callable[[list], float],
    x0,
    bounds: Sequence[tuple] | None = None,
    *,
    xatol: float = 1e-4,
    fatol: float = 1e-4,
    maxiter: float | None = None,
    maxfev: float | None = None,
) -> SimplexResult:
    """Bounded Nelder-Mead on Python floats.

    Replays scipy.optimize.minimize(method="Nelder-Mead", bounds=...,
    adaptive=False) step for step, so for the same f it visits the same
    points and returns the same x, fun, nfev and success flag: the same
    initial simplex (x0 scaled by 1.05 per coordinate, 0.00025 for a zero
    coordinate, reflected into the box and clipped), clipping of every trial
    point, the same xatol/fatol test, the same vertex order (np.argsort,
    ties included), and the same budgets (a maxfev stop can fall part-way
    through an iteration, including during a shrink).  What it drops is
    scipy's per-evaluation array bookkeeping, which costs more than a
    closed-form lifted objective.

    f receives a list of floats and must return a float; it must not
    mutate its argument.  bounds is a sequence of (lo, hi) pairs, None
    meaning unbounded on that side.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    if bounds is None:
        lo, hi = [-math.inf] * n, [math.inf] * n
    else:
        lo = [-math.inf if b[0] is None else float(b[0]) for b in bounds]
        hi = [math.inf if b[1] is None else float(b[1]) for b in bounds]
        if any(l > h for l, h in zip(lo, hi)):
            raise DomainError("nelder_mead: a lower bound exceeds its upper bound")
    # with infinite bounds the clipping and reflection below are identities
    x0 = _clip_point(x0, lo, hi)

    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    # a vertex pushed past an upper bound is reflected into the box
    sim = [_clip_point([2 * h - v if v > h else v for v, h in zip(row, hi)], lo, hi)
           for row in sim]

    if maxiter is None and maxfev is None:
        maxiter = maxfev = n * 200
    elif maxiter is None:
        maxiter = n * 200 if maxfev == math.inf else math.inf
    elif maxfev is None:
        maxfev = n * 200 if maxiter == math.inf else math.inf

    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return f(x)

    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _Exhausted:
        pass
    # scipy sorts once in a finally block and once more after it; with an
    # unstable sort the second pass may permute tied vertices again
    sim, fsim = _order(sim, fsim)
    sim, fsim = _order(sim, fsim)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if _converged(sim, fsim, xatol, fatol):
                break
            # centroid of all but the worst vertex, summed in row order
            acc = sim[0]
            for row in sim[1:-1]:
                acc = [s + v for s, v in zip(acc, row)]
            xbar = [s / n for s in acc]
            worst = sim[-1]

            xr = _trial(xbar, worst, 1 + _RHO, _RHO, lo, hi)
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = _trial(xbar, worst, 1 + _RHO * _CHI, _RHO * _CHI, lo, hi)
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                doshrink = False
                if fxr < fsim[-1]:
                    xc = _trial(xbar, worst, 1 + _PSI * _RHO, _PSI * _RHO, lo, hi)
                    fxc = call(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        doshrink = True
                else:
                    xcc = _trial(xbar, worst, 1 - _PSI, -_PSI, lo, hi)
                    fxcc = call(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        doshrink = True
                if doshrink:
                    best = sim[0]
                    for j in range(1, n + 1):
                        # the vertex moves before its evaluation, so a budget
                        # stop mid-shrink leaves it with its old value
                        sim[j] = _clip_point(
                            [b + _SIGMA * (v - b) for v, b in zip(sim[j], best)], lo, hi)
                        fsim[j] = call(sim[j])
            iterations += 1
        except _Exhausted:
            pass
        sim, fsim = _order(sim, fsim)

    return SimplexResult(
        x=sim[0],
        fun=float(np.min(fsim)),
        nfev=nfev,
        nit=iterations,
        success=not (nfev >= maxfev or iterations >= maxiter),
    )


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
    """Bounded Brent minimization on Python floats.

    Replays scipy.optimize.minimize_scalar(method="bounded") step for step,
    so for the same f it visits the same points and returns the same x, fun
    and nfev: the same first point at the golden section of [lo, hi], the
    same parabolic and golden steps with their acceptance, sign and tie
    rules, the same sqrt(2.2e-16) relative tolerance and the same stop after
    maxiter evaluations.  What it drops is scipy's per-step numpy scalar
    bookkeeping, which costs more than a closed-form direct objective.
    """
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("minimize_bounded: bounds must be finite")
    if a > b:
        raise DomainError("minimize_bounded: the lower bound exceeds the upper bound")
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


SCALAR_GRID_POINTS = 33
SCALAR_XATOL = 1e-12


def scalar_minimum(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """(min f, argmin) over [lo, hi]: a 33-point grid, then bounded Brent
    (xatol 1e-12) between the grid neighbours of the best grid point,
    keeping the grid point if Brent ends above it.  Robust for the 1-d nu
    searches of the direct bounds."""
    grid = np.linspace(lo, hi, SCALAR_GRID_POINTS).tolist()
    vals = [f(g) for g in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, SCALAR_GRID_POINTS - 1)]
    if a == b:
        return float(vals[i]), grid[i]
    res = minimize_bounded(f, a, b, xatol=SCALAR_XATOL)
    if res.fun <= vals[i]:
        return float(res.fun), res.x
    return float(vals[i]), grid[i]


def _exp_sat(x: float) -> float:
    """Saturating exp: overflow means the quantity itself is huge."""
    return math.exp(x) if x < 709.0 else math.inf


def gaussian_quadratic_integral(p: float, s: float, c: float, lo: float, hi: float) -> float:
    """Exact integral of exp(p*h**2 + s*h + c) against the N(0,1) density on [lo, hi].

    Requires p < 1/2.  Completing the square gives
        e^E / (2*sqrt(1-2p)) * (erfc(z(lo)) - erfc(z(hi))),
        a = 1/2 - p,  mu = s/(2a),  z(x) = (x-mu)*sqrt(a),  E = a*mu**2 + c,
    evaluated through erfcx so that huge e^E against tiny erfc never overflows
    when the true value is moderate.  lo/hi may be +-inf.  Scalar floats only;
    this sits in the innermost loop of every lifted solve.
    """
    a = 0.5 - p
    if a <= 0:
        raise DomainError("gaussian_quadratic_integral requires p < 1/2")
    if hi <= lo:
        return 0.0
    mu = s / (2.0 * a)
    sqrt_a = math.sqrt(a)
    E = a * mu * mu + c
    norm = 2.0 * math.sqrt(1.0 - 2.0 * p)
    # at a finite limit x the log of the integrand (up to the 1/sqrt(2pi)) is
    # (p - 1/2) x^2 + s x + c = E - z(x)^2, and e^E * erfc(+-z(x)) is
    # exp of that times erfcx(+-z(x)), overflow-free
    z_lo = -math.inf if lo == -math.inf else (lo - mu) * sqrt_a
    z_hi = math.inf if hi == math.inf else (hi - mu) * sqrt_a
    if z_lo >= 0:
        upper = (0.0 if z_hi == math.inf else
                 float(_sp.erfcx(z_hi)) * _exp_sat((p - 0.5) * hi * hi + s * hi + c))
        return (float(_sp.erfcx(z_lo)) * _exp_sat((p - 0.5) * lo * lo + s * lo + c)
                - upper) / norm
    lower = (0.0 if z_lo == -math.inf else
             _exp_sat((p - 0.5) * lo * lo + s * lo + c) * float(_sp.erfcx(-z_lo)))
    if z_hi <= 0:
        return (_exp_sat((p - 0.5) * hi * hi + s * hi + c) * float(_sp.erfcx(-z_hi))
                - lower) / norm
    # window straddles the peak: the e^E mass is genuinely present
    upper = (0.0 if z_hi == math.inf else
             float(_sp.erfcx(z_hi)) * _exp_sat((p - 0.5) * hi * hi + s * hi + c))
    return (2.0 * _exp_sat(E) - lower - upper) / norm


_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def _composite_gl(f, segments, panels_per_unit):
    """Composite Gauss-Legendre sum of f over the given segments.

    Panels are distributed proportionally to segment length (at least one
    per segment) so that panel edges always sit on segment boundaries.
    """
    total = 0.0
    span = sum(hi - lo for lo, hi in segments)
    for lo, hi in segments:
        n_pan = max(1, int(round(panels_per_unit * (hi - lo) / span)))
        edges = np.linspace(lo, hi, n_pan + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        # nodes: (n_pan, order)
        nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = f(nodes.ravel()).reshape(nodes.shape)
        total += float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))
    return total


def gauss_expectation(
    g: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec | None = None,
    breakpoints: Sequence[float] = (),
    g_is_log: bool = False,
) -> float:
    """E[g(h)] for h ~ N(0,1), by breakpoint-aligned composite quadrature.

    g must be vectorized and integrable against the standard normal density;
    the caller guarantees that g(h)*exp(-h**2/2) has decayed at
    +-spec.half_width (for exponential-moment integrands this is the
    b < 1/2 style constraint plus a wide enough window).  Panel counts are
    doubled until two successive estimates agree to spec.rel_tol relative;
    NonConvergentError is raised if the doubling cap is reached first.

    With g_is_log=True, g returns log-values and E[exp(g(h))] is computed;
    the exponents are combined with the Gaussian weight before
    exponentiating, so integrands that overflow pointwise but are tamed by
    the weight evaluate cleanly.
    """
    spec = spec or QuadratureSpec()
    hw = spec.half_width
    cuts = sorted({-hw, hw, *(float(b) for b in breakpoints if -hw < float(b) < hw)})
    segments = list(zip(cuts[:-1], cuts[1:]))

    if g_is_log:
        def weighted(h):
            return np.exp(g(h) - 0.5 * h * h) / SQRT2PI
    else:
        def weighted(h):
            return g(h) * np.exp(-0.5 * h * h) / SQRT2PI

    panels = spec.panels
    prev = None
    while panels <= spec.max_panels:
        est = _composite_gl(weighted, segments, panels)
        if prev is not None and abs(est - prev) <= spec.rel_tol * max(abs(est), 1e-12):
            return est
        prev = est
        panels *= 2
    delta = "n/a" if prev is None else f"{abs(est - prev):.3e}"
    raise NonConvergentError(
        f"quadrature did not stabilize to rel_tol={spec.rel_tol} "
        f"within {spec.max_panels} panels (last delta {delta})"
    )
