"""Special functions and generic numerical routines used by every bound.

Everything here is pure and reentrant: no shared mutable state, safe for
concurrent use.  Special functions delegate to scipy.special (double
precision, accepts scalars or arrays).  The quadrature, the minimizers
and the root solve are implemented here because they carry contracts the
generic library routines do not:

* breakpoint-aligned quadrature panels with a doubling convergence
  certificate per integrand, for one integrand or a batch of them: each
  doubling step is one vectorized Gauss-Legendre pass over the panels of
  every segment of every integrand not yet converged, in blocks of at
  most 512 panels per call of the integrand that span integrands;
* a projected BFGS on Python floats for smooth objectives with analytic
  gradients over a box (the lifted threshold's ratio), which starts from a
  diagonal inverse Hessian by forward differences;
* a Newton search for the minimum of a convex function whose slope is
  increasing and concave, given in closed form (the direct 1-D minima and
  the weak boundary);
* Newton from below on the root of an increasing concave function, whose
  iterates never pass the root (the direct and weak thresholds).

These skip scipy's per-call bookkeeping, which costs more than the
closed-form functions they work on.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.special as _sp

from .errors import DomainError, NonConvergentError

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True, slots=True)
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


def erfinv(p: float) -> float:
    """Inverse of erf on (-1, 1) at one scalar p (NaN passes through).

    Raises DomainError for |p| >= 1 (the spec of this routine is total only
    on the open interval; infinities are never returned).
    """
    if abs(p) >= 1.0:
        raise DomainError("erfinv requires |p| < 1")
    return float(_sp.erfinv(p))


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
    it must not mutate; the gradient is None where f is not finite, and an
    infinite start is returned as it is.  The start's inverse Hessian
    estimate H is diagonal, from forward differences of the gradient
    (steps of 1e-4 times the distance to the box, at least 1e-8), 1 where a
    curvature is not positive.  Each iteration fixes the coordinates on a
    face whose gradient points out of the box, steps along -H g on the
    others, projects the step into the box and halves it until the Armijo
    condition holds (slope fraction 1e-4, 40 halvings at most); H gets the
    BFGS update, which keeps it exactly symmetric, when the curvature s.y
    is positive, and is reset to the identity when -H g is not a descent
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
            h = [[hij - (hyi * sj + si * hyj) / sy + c * (si * sj)
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


def newton_root(f: Callable[[float], tuple[float, float]], lo: float, hi: float,
                tol: float) -> float:
    """Root on [lo, hi] of an increasing concave f, approached from below.

    f(x) returns (f(x), f'(x)).  If f(lo) >= 0 the root is lo.  Otherwise
    each step goes to the zero of the tangent at the last iterate, clipped
    at hi (hi itself when the slope is not positive); each tangent lies above
    the concave f, so no iterate passes the root and f <= 0 at every one.
    The solve returns the tangent's zero, unevaluated, once the step to it
    is below tol or it is hi.
    """
    x = lo
    value, slope = f(x)
    if value >= 0.0:
        return lo
    while True:
        nxt = min(x - value / slope, hi) if slope > 0.0 else hi
        if nxt - x < tol or nxt == hi:
            return nxt
        x = nxt
        value, slope = f(x)


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
# 8192 values however many panels the doubling reaches or items a batch holds
_GL_BLOCK = 512


def _panel_blocks(lo, hi, panels):
    """The panels of every segment [lo[i], hi[i]], segment after segment,
    with panels[i] equal panels on segment i, as (seg, left, right) blocks
    of at most _GL_BLOCK panels, seg the segment of each panel: edge j of
    [lo, hi] is lo + j * ((hi - lo) / panels[i]) as np.linspace places it,
    and the last one is hi itself, so panels start and end on the segment
    boundaries."""
    lo, hi, panels = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), np.asarray(panels)
    ends = np.cumsum(panels)
    for first in range(0, int(ends[-1]), _GL_BLOCK):
        k = np.arange(first, min(first + _GL_BLOCK, int(ends[-1])))
        seg = np.searchsorted(ends, k, side="right")
        start, end, count = lo[seg], hi[seg], panels[seg]
        j = k - (ends[seg] - count)
        width = (end - start) / count
        right = start + (j + 1) * width
        last = np.flatnonzero(j == count - 1)
        right[last] = end[last]
        yield seg, start + j * width, right


def _composite_gl(f, lo, hi, panels, owner, n_items):
    """Composite Gauss-Legendre sums of f, one per item: segment
    [lo[i], hi[i]] carries panels[i] equal panels, so that panel edges sit
    on segment boundaries, and belongs to item owner[i], the segments of
    one item next to each other.  f(nodes, item) gets the 16 nodes of one
    panel per row, at most _GL_BLOCK rows per call with the panels of all
    segments and items in one sequence, and item, the item of each row as
    a column.  An item's share of a block is summed in one np.sum and the
    shares are added in order, so a lone item is summed block by block
    from its first panel."""
    owner = np.asarray(owner)
    sums = [0.0] * n_items
    for seg, left, right in _panel_blocks(lo, hi, panels):
        half = 0.5 * (right - left)[:, None]
        item = owner[seg]
        nodes = half * _GL_NODES
        nodes += 0.5 * (right + left)[:, None]
        terms = f(nodes, item[:, None]) * (half * _GL_WEIGHTS)
        runs = [] if item[0] == item[-1] else (np.flatnonzero(item[1:] != item[:-1]) + 1).tolist()
        cuts = [0, *runs, len(item)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            sums[item[a]] += float(terms[a:b].sum())
    return np.array(sums)


def gauss_expectation(
    g: Callable,
    spec: QuadratureSpec | Iterable[QuadratureSpec] | None = None,
    breakpoints: Iterable = (),
    g_is_log: bool = False,
):
    """E[g(h)] for h ~ N(0,1), by breakpoint-aligned composite quadrature;
    or, for a batch of integrands ("items"), the list of E[g(h, i)].

    With spec a QuadratureSpec (or None for the default), g(h) takes an
    array of nodes and breakpoints is one sequence.  With spec an iterable
    of QuadratureSpec, one per item, breakpoints is an iterable of the same
    length holding each item's breakpoints, and g(h, item) takes the nodes,
    one panel per row, with item, the item of each row (its index in the
    batch) as an integer column; one integrand is the batch of one.  Both
    iterables are read once, item by item, into flat arrays, so a caller
    may pass generators and keep no object per item.

    g must be vectorized and integrable against the standard normal density;
    the caller guarantees that g(h)*exp(-h**2/2) has decayed at
    +-spec.half_width (for exponential-moment integrands this is the
    b < 1/2 style constraint plus a wide enough window).  Each item's panel
    counts are doubled until two successive estimates agree to its
    spec.rel_tol relative; NonConvergentError, naming the first item that
    failed, is raised if an item reaches its doubling cap first.  Each
    doubling step lays out the panels of every unconverged item together
    and calls g once per block of up to 512 panels (8192 nodes), so a
    block spans items and the arrays a call makes are bounded by the
    block, not by the batch.

    With g_is_log=True, g returns log-values and E[exp(g(h))] is computed;
    the exponents are combined with the Gaussian weight before
    exponentiating, so integrands that overflow pointwise but are tamed by
    the weight evaluate cleanly; at the doubling cap it accepts estimates that
    agree to the rounding of the exponents, above rel_tol for mass past |h| ~ 2e3.
    """
    one = spec is None or isinstance(spec, QuadratureSpec)
    if one:
        spec, breakpoints, f = [spec or QuadratureSpec()], [breakpoints], (lambda h, item: g(h))
    else:
        f = g

    if g_is_log:
        def weighted(h, item):  # exp(g - h*h/2) / sqrt(2 pi), in place
            w = h * h
            w *= -0.5
            w += f(h, item)
            np.exp(w, out=w)
            w /= SQRT2PI
            return w
    else:
        def weighted(h, item):  # g * exp(-h*h/2) / sqrt(2 pi), in place
            w = h * h
            w *= -0.5
            np.exp(w, out=w)
            w *= f(h, item)
            w /= SQRT2PI
            return w

    lo, hi, counts = array("d"), array("d"), array("q")
    reals, ints = array("d"), array("q")
    for s, bps in zip(spec, breakpoints, strict=True):
        hw = s.half_width
        cuts = sorted({-hw, hw, *(float(b) for b in bps if -hw < float(b) < hw)})
        lo.extend(cuts[:-1])
        hi.extend(cuts[1:])
        counts.append(len(cuts) - 1)
        reals.extend((hw, s.rel_tol))
        ints.extend((s.panels, s.max_panels, int(s.max_panels // s.panels).bit_length()))
    n = len(counts)
    if n == 0:
        return []
    lo, hi = np.frombuffer(lo), np.frombuffer(hi)
    hw, rel_tol = np.frombuffer(reals).reshape(n, 2).T
    first, max_panels, steps = np.frombuffer(ints, dtype=np.int64).reshape(n, 3).T
    owner = np.repeat(np.arange(n), counts)
    # each item's spec.panels shared by segment length (at least one each);
    # every segment doubles at each step, so none sits on one panel while
    # the rest converge
    panels = np.maximum(1, np.round(first[owner] * (hi - lo) / (2.0 * hw[owner]))).astype(np.int64)

    prev = np.full(n, math.inf)
    est = np.full(n, math.inf)
    done = np.zeros(n, dtype=bool)        # converged
    capped = np.zeros(n, dtype=bool)      # reached the doubling cap unconverged
    for step in range(int(steps.max())):
        active = ~(done | capped)
        if not active.any():
            break
        live = slice(None) if active.all() else active[owner]
        sums = _composite_gl(weighted, lo[live], hi[live], panels[live] << step, owner[live], n)
        prev[active], est[active] = est[active], sums[active]
        done |= active & (np.abs(est - prev) <= rel_tol * np.maximum(np.abs(est), 1e-12))
        capped |= active & ~done & (steps == step + 1)
    # each exp(g - h**2/2) is rounded to eps * (|g| + h**2/2) relative; the
    # rounding is integrated on the panels of the estimate it judges
    if g_is_log and capped.any():
        def rounding(h, item):
            gh = f(h, item)
            return np.exp(gh - 0.5 * h * h) / SQRT2PI * (np.abs(gh) + 0.5 * h * h)

        on = capped[owner]
        floor = _composite_gl(rounding, lo[on], hi[on], panels[on] << (steps - 1)[owner[on]],
                              owner[on], n)
        capped &= ~(np.abs(est - prev) <= 2.2e-16 * floor)
    if capped.any():
        i = int(np.argmax(capped))
        raise NonConvergentError(
            f"quadrature{'' if one else f' of item {i}'} did not stabilize to "
            f"rel_tol={float(rel_tol[i])} within {int(max_panels[i])} panels "
            f"(last delta {abs(est[i] - prev[i]):.3e})"
        )
    return float(est[0]) if one else est.tolist()
