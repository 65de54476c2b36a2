"""Special functions and generic numerical routines used by every bound.

Everything here is pure and reentrant: no shared mutable state, safe for
concurrent use.  Special functions delegate to scipy.special (double
precision, accepts scalars or arrays).  The quadrature and the
minimizers are implemented here because they carry contracts the generic
library routines do not:

* breakpoint-aligned quadrature panels with a doubling convergence
  certificate, each doubling step one vectorized Gauss-Legendre pass over
  the panels of every segment, in blocks of at most 512 panels per call
  of the integrand;
* a projected BFGS on Python floats for smooth objectives with analytic
  gradients over a box (the lifted probes);
* a Newton search for the minimum of a convex function whose slope is
  increasing and concave, given in closed form (the direct 1-D minima).

The minimizers skip scipy's per-call bookkeeping, which costs more than
the closed-form objectives they minimize.
"""

from __future__ import annotations

import math
import operator
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
        if not (math.isfinite(self.half_width) and self.half_width >= 6):
            raise DomainError(
                f"half_width must be finite and >= 6 standard deviations, got {self.half_width}")
        if not all(isinstance(n, (int, np.integer)) for n in (self.panels, self.max_panels)):
            raise DomainError(f"panels and max_panels must be integers, got "
                              f"{self.panels!r} and {self.max_panels!r}")
        if not 64 <= self.panels <= self.max_panels:
            raise DomainError(f"need 64 <= panels <= max_panels, got "
                              f"{self.panels} and {self.max_panels}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise DomainError(f"rel_tol must be finite and positive, got {self.rel_tol}")


def phi(x: float) -> float:
    """Standard normal density at a scalar (x * x: x ** 2 rounds differently)."""
    return float(np.exp(-0.5 * (x * x))) / SQRT2PI


def erf(x):
    """Error function, |error| <= 1e-14 on finite reals; exactly odd."""
    return _sp.erf(x)


def erfc(x):
    """Complementary error function 1 - erf(x), computed without cancellation."""
    return _sp.erfc(x)


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


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(operator.mul, a, b))


def projected_bfgs(
    fg: Callable[[list], tuple],
    x0: Sequence[float],
    bounds: Sequence[tuple[float, float]],
    *,
    fatol: float,
    max_iter: int,
) -> tuple[list, tuple]:
    """Minimize f over a box by projected BFGS; returns the last accepted
    point and fg there, whose f is never above f at the clipped start.

    fg(x) returns a tuple (f, gradient, ...) for a list of floats x, which
    it must not mutate; the gradient is None where f is not finite.  The
    start's inverse Hessian estimate H is diagonal, from forward
    differences of the gradient (steps of 1e-4 times the distance to the
    box, at least 1e-8), 1 where a curvature is not positive.  Each
    iteration fixes the coordinates on a face whose gradient points out of
    the box, steps along -H g on the others, projects the step into the box
    and halves it until the Armijo condition holds (slope fraction 1e-4, 40
    halvings at most); H gets the BFGS update when the curvature s.y is
    positive and is reset to the identity when -H g is not a descent
    direction (Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 6 and
    16.7).  The run stops when the predicted decrease -g.p/2 is at most
    fatol, when no halving decreases f, or after max_iter iterations.
    """
    box = [(float(lo), float(hi)) for lo, hi in bounds]
    n = len(box)
    x = [min(max(float(v), lo), hi) for v, (lo, hi) in zip(x0, box)]
    out = fg(x)
    f, g = out[:2]
    if g is None:
        return x, out
    h = [[0.0] * n for _ in range(n)]
    for i, (lo, hi) in enumerate(box):
        step = 1e-4 * max(min(x[i] - lo, hi - x[i]), 1e-4)
        e = list(x)
        e[i] = x[i] + step if x[i] + step <= hi else x[i] - step
        ge = fg(e)[1]
        curv = (ge[i] - g[i]) / (e[i] - x[i]) if ge is not None else 0.0
        h[i][i] = 1.0 / curv if curv > 0.0 else 1.0
    for _ in range(max_iter):
        free = [not ((v <= lo and gi > 0.0) or (v >= hi and gi < 0.0))
                for v, gi, (lo, hi) in zip(x, g, box)]
        g_free = [gi if fi else 0.0 for gi, fi in zip(g, free)]
        p = [-_dot(row, g_free) if fi else 0.0 for row, fi in zip(h, free)]
        slope = _dot(p, g)
        if not slope < 0.0:
            h = [[float(i == j) for j in range(n)] for i in range(n)]
            p = [-gi for gi in g_free]
            slope = _dot(p, g)
        if -slope <= 2.0 * fatol:
            break
        t = 1.0
        for _ in range(40):
            trial = [min(max(v + t * pi, lo), hi) for v, pi, (lo, hi) in zip(x, p, box)]
            s = [a - v for a, v in zip(trial, x)]
            out_t = fg(trial)
            ft, gt = out_t[:2]
            if ft < f and ft <= f + 1e-4 * _dot(s, g):
                break
            t *= 0.5
        else:
            break
        y = [a - v for a, v in zip(gt, g)]
        sy = _dot(s, y)
        if sy > 0.0:
            hy = [_dot(row, y) for row in h]
            c = (1.0 + _dot(y, hy) / sy) / sy
            h = [[hij - (hyi * sj + si * hyj) / sy + c * si * sj
                  for hij, hyj, sj in zip(row, hy, s)] for row, hyi, si in zip(h, hy, s)]
        x, out, f, g = trial, out_t, ft, gt
    return x, out


def newton_minimum(profile: Callable[[float], tuple[float, float, float]],
                   hi: float) -> tuple[float, float]:
    """(min f, argmin) of a convex f over [0, hi], by Newton on its slope.

    profile(x) returns (f(x), g(x), g'(x)), where g is a positive multiple of
    f' that is increasing and concave on [0, hi].  If g(0) >= 0 the minimum
    is at 0.  Otherwise the Newton iterates from 0 rise monotonically to the
    root of g (each tangent lies above the concave g, so it crosses zero at
    or below the root); they stop when a step no longer increases x, and
    are clipped at hi.
    """
    x = 0.0
    value, g, dg = profile(x)
    while g < 0.0 and x < hi:
        nxt = min(x - g / dg, hi)
        if not nxt > x:
            break
        x = nxt
        value, g, dg = profile(x)
    return value, x


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


def gaussian_quadratic_moments(b: float, x0: float, c: float, lo: float,
                               hi: float) -> tuple[float, float, float]:
    """(J0, J1, J2), Jk the integral of u**k * exp(b*u**2 + c), u = h - x0,
    against the N(0,1) density on [lo, hi] (b < 1/2, lo <= hi).

    J0 is gaussian_quadratic_integral; J1 and J2 follow by parts from J0 and
    the integrand f (density included) at the finite ends: in u,
    f' = -(1 - 2b)(u - d) f with d = -x0/(1 - 2b), so
        (1 - 2b) J1 = (1 - 2b) d J0 + f(lo) - f(hi),
        (1 - 2b) J2 = (1 - 2b) d J1 + J0 + u(lo) f(lo) - u(hi) f(hi).
    """
    j0 = gaussian_quadratic_integral(b, -2.0 * b * x0, b * x0 * x0 + c, lo, hi)
    a2 = 1.0 - 2.0 * b
    f1 = f2 = 0.0
    for x, sign in ((lo, 1.0), (hi, -1.0)):
        if math.isfinite(x) and hi > lo:
            u = x - x0
            f = sign * _exp_sat(b * u * u + c - 0.5 * x * x) / SQRT2PI
            f1, f2 = f1 + f, f2 + u * f
    j1 = (-x0 * j0 + f1) / a2
    return j0, j1, (-x0 * j1 + j0 + f2) / a2


_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
# panels per call of the integrand: bounds the transient node arrays at
# 8192 values however many panels the doubling reaches
_GL_BLOCK = 512


def _panel_edges(segments, panels):
    """(left, right) edges of every panel, segment after segment, with
    panels[i] equal panels on segment i: edge j of [lo, hi] is
    lo + j * ((hi - lo) / panels[i]) as np.linspace places it, and the last
    one is hi itself, so panels start and end on the segment boundaries."""
    counts = np.asarray(panels)
    ends = np.cumsum(counts)
    seg = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(ends[-1]) - (ends - counts)[seg]
    lo, hi = np.asarray(segments, dtype=float).T
    start, step = lo[seg], ((hi - lo) / counts)[seg]
    right = start + (j + 1) * step
    right[ends - 1] = hi
    return start + j * step, right


def _composite_gl(f, segments, panels):
    """Composite Gauss-Legendre sum of f over the given segments, with
    panels[i] equal panels on segment i, so that panel edges always sit on
    segment boundaries.  f sees the nodes of at most _GL_BLOCK panels per
    call, the panels of all segments in one sequence."""
    left, right = _panel_edges(segments, panels)
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    total = 0.0
    for b in range(0, len(half), _GL_BLOCK):
        h = half[b:b + _GL_BLOCK, None]
        nodes = mid[b:b + _GL_BLOCK, None] + h * _GL_NODES
        vals = f(nodes.ravel()).reshape(nodes.shape)
        total += float(np.sum(h * _GL_WEIGHTS * vals))
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
    NonConvergentError is raised if the doubling cap is reached first.  Each
    estimate calls g once per block of up to 512 panels (8192 nodes), the
    panels of all segments together: one call per estimate below that size.

    With g_is_log=True, g returns log-values and E[exp(g(h))] is computed;
    the exponents are combined with the Gaussian weight before
    exponentiating, so integrands that overflow pointwise but are tamed by
    the weight evaluate cleanly; at the doubling cap it accepts estimates that
    agree to the rounding of the exponents, above rel_tol for mass past |h| ~ 2e3.
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

    # spec.panels shared by segment length (at least one each); every segment
    # doubles at each step, so none sits on one panel while the rest converge
    seg_panels = [max(1, round(spec.panels * (hi - lo) / (2.0 * hw))) for lo, hi in segments]
    prev = est = math.inf
    for _ in range(int(spec.max_panels // spec.panels).bit_length()):
        prev, est = est, _composite_gl(weighted, segments, seg_panels)
        if abs(est - prev) <= spec.rel_tol * max(abs(est), 1e-12):
            return est
        est_panels, seg_panels = seg_panels, [2 * n for n in seg_panels]
    # each exp(g - h**2/2) is rounded to eps * (|g| + h**2/2) relative; the
    # rounding is integrated on the panels of the estimate it judges
    if g_is_log:
        def rounding(h):
            gh = g(h)
            return np.exp(gh - 0.5 * h * h) / SQRT2PI * (np.abs(gh) + 0.5 * h * h)

        if abs(est - prev) <= 2.2e-16 * _composite_gl(rounding, segments, est_panels):
            return est
    raise NonConvergentError(
        f"quadrature did not stabilize to rel_tol={spec.rel_tol} "
        f"within {spec.max_panels} panels (last delta {abs(est - prev):.3e})"
    )
