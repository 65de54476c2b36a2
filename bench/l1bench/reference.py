"""Host-speed reference: the yardstick every benchmark time is divided by.

The host runs a fixed computation at speeds that change by 20-70 %
between periods a few seconds to minutes long, and by up to 2x within
seconds, and CPU time moves with wall time (the vCPU itself slows).  A
raw time therefore says as much about the host as about l1lab.  So the
workloads pause every `interval` seconds to run one probe: a fixed mix of
the kinds of work l1lab does -- an interpreted loop, adaptive quadrature
and a root find, a Nelder-Mead search, a small linear program and
matrix-vector products -- each timed on its own.  A time measured over
[t0, t1] is scaled by

    factor = geometric mean over components of NOMINAL_S / local median

where the local median is taken over the NEAREST probes; an interval
with probes inside it is cut at them and the parts weighted by length.
The host's speed changes within seconds, so only probes close in time
say how fast it ran an operation.  A normalised time
is thus the time the operation would have taken on a host at which the
probe components take NOMINAL_S, so it moves with l1lab's own speed and
not with the host's.  Probe time is never part of a measured time: the
caller subtracts `spent` across every interval it times.

Nothing here calls l1lab, so a change to the library cannot change the
yardstick.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
from scipy import integrate, optimize

perf = time.perf_counter

NEAREST = 3


def _interpreted():
    s = 0
    for i in range(12000):
        s += i * i % 7
    return s


def _quadrature():
    for _ in range(32):
        integrate.quad(lambda x: math.exp(-x * x) * math.cos(x), 0.0, 5.0)
        optimize.brentq(lambda x: math.cos(x) - x, 0.0, 1.0)


def _nelder_mead():
    optimize.minimize(optimize.rosen, np.array([1.3, 0.7, 0.8, 1.9]),
                      method="Nelder-Mead", options={"maxfev": 80})


_LP_A = np.random.default_rng(1).standard_normal((12, 16))


def _linprog():
    optimize.linprog(np.ones(16), A_ub=_LP_A, b_ub=np.ones(12), bounds=(-1, 1))


_MV_M = np.random.default_rng(2).standard_normal((80, 200))
_MV_V = np.random.default_rng(3).standard_normal(200)


def _matvec():
    x = _MV_V
    for _ in range(150):
        x = _MV_M.T @ (_MV_M @ x) * 1e-3
    return x


COMPONENTS = (
    ("interpreted", _interpreted),
    ("quadrature", _quadrature),
    ("nelder_mead", _nelder_mead),
    ("linprog", _linprog),
    ("matvec", _matvec),
)

# Median seconds per component on the calibration host (2 vCPU Intel Xeon
# under KVM, Python 3.11, numpy 2.4, scipy 1.17).  Only their product
# matters: it fixes the scale of every normalised time.
NOMINAL_S = {
    "interpreted": 0.82e-3,
    "quadrature": 0.84e-3,
    "nelder_mead": 2.13e-3,
    "linprog": 1.65e-3,
    "matvec": 1.23e-3,
}


class Reference:
    """Probes taken during one run, and the speed factor they give."""

    def __init__(self, interval: float):
        self.interval = interval
        self.stamps = []      # middle of each probe, perf_counter seconds
        self.times = []       # per probe: seconds per component
        self.spent = 0.0      # seconds spent probing so far
        self._last = -math.inf

    def warm_up(self):
        for _, fn in COMPONENTS:
            fn()

    def probe(self):
        t0 = perf()
        row = []
        for _, fn in COMPONENTS:
            s = perf()
            fn()
            row.append(perf() - s)
        t1 = perf()
        self.stamps.append(0.5 * (t0 + t1))
        self.times.append(row)
        self.spent += t1 - t0
        self._last = t1

    def maybe_probe(self):
        """Probe if `interval` seconds have passed since the last probe
        (never when the interval is None)."""
        if self.interval is not None and perf() - self._last >= self.interval:
            self.probe()

    def _local(self, t: float) -> float:
        """Nominal over measured speed at time t, from the NEAREST probes."""
        i = bisect.bisect_left(self.stamps, t)
        window = range(max(i - NEAREST, 0), min(i + NEAREST, len(self.stamps)))
        near = sorted(window, key=lambda j: abs(self.stamps[j] - t))[:NEAREST]
        log_sum = 0.0
        for c, (name, _) in enumerate(COMPONENTS):
            local = statistics.median(self.times[j][c] for j in near)
            log_sum += math.log(NOMINAL_S[name] / local)
        return math.exp(log_sum / len(COMPONENTS))

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over measured speed, averaged over [t0, t1]: the interval
        is cut at the probes inside it and each part weighted by its length."""
        if not self.stamps:
            raise RuntimeError("no reference probe was taken")
        lo = bisect.bisect_right(self.stamps, t0)
        hi = bisect.bisect_left(self.stamps, t1)
        cuts = [t0] + self.stamps[lo:hi] + [t1]
        if hi <= lo or t1 <= t0:
            return self._local(0.5 * (t0 + t1))
        total = sum((b - a) * self._local(0.5 * (a + b)) for a, b in zip(cuts, cuts[1:]))
        return total / (t1 - t0)

    def normalise(self, samples):
        """Samples, each a list of (t0, t1, seconds) pieces -> seconds per
        sample at the nominal reference speed."""
        return [sum(s * self.factor(t0, t1) for t0, t1, s in pieces) for pieces in samples]
