"""Closed-form vs quadrature-oracle parity auditing.

Every lifted set term has two evaluation routes: the analytic closed form
(fast, used by the optimizers) and the quadrature oracle that integrates
the exponent definition directly (slow, authoritative).  The audit samples
random parameter tuples per threshold kind over the optimizer's search box,
redrawing the fifth to quarter whose moments overflow a double, and
reports the worst relative deviation between the two routes.  All tuples
of a kind are drawn, with their closed forms, before one batched oracle
call evaluates them, one quadrature pass per exponent piece serving the
whole batch; each tuple keeps its own window, breakpoints and convergence
test there, so its oracle value is the one it gets alone up to the order
of the quadrature sums.  A deviation beyond TOLERANCE, or a NaN one, is a
failure; there is no registry of tolerated deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lift_core import SEARCH_BOX, LiftedKind, LiftParams, exp_set_term_oracle, kind_table

AUDITED = {name: spec for name, spec in kind_table().items() if isinstance(spec, LiftedKind)}
TOLERANCE = 1e-6


@dataclass(frozen=True, slots=True)
class ParityRecord:
    kind: str
    beta: float
    params: LiftParams
    closed: float
    oracle: float

    @property
    def rel_dev(self) -> float:
        return abs(self.closed - self.oracle) / max(abs(self.oracle), 1e-12)


@dataclass(frozen=True)
class ParityReport:
    seed: int
    samples_per_kind: int
    tolerance: float
    records: tuple[ParityRecord, ...]

    def max_dev(self, kind: str | None = None) -> float:
        """Worst deviation over the records (of `kind`); NaN if any is NaN."""
        devs = [r.rel_dev for r in self.records if kind is None or r.kind == kind]
        return float(np.max(devs)) if devs else 0.0

    def failures(self) -> list[ParityRecord]:
        """Records beyond the tolerance, NaN deviations included."""
        return [r for r in self.records if not r.rel_dev <= self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples_per_kind": self.samples_per_kind,
            "tolerance": self.tolerance,
            "max_rel_dev": {k: self.max_dev(k) for k in AUDITED},
            "n_failures": len(self.failures()),
            "passed": self.passed,
        }


def sample_params(kind: str, rng: np.random.Generator) -> tuple[float, LiftParams]:
    """One random (beta, params) of the given kind over SEARCH_BOX: c3
    log-uniform, 1/2 - b log-uniform (dense near b = 1/2, where optima at
    high alpha sit) and each multiplier log-uniform from 1e-4; betas cover
    the kind's range.  An oracle call costs no more here than with b <= 0.45."""
    (c3_lo, c3_hi), (b_lo, b_hi), *nu_box = SEARCH_BOX[:2 + AUDITED[kind].n_extra]
    c3 = math.exp(rng.uniform(math.log(c3_lo), math.log(c3_hi)))
    b = 0.5 - math.exp(rng.uniform(math.log(0.5 - b_hi), math.log(0.5 - b_lo)))
    nu = [math.exp(rng.uniform(math.log(1e-4), math.log(hi))) for _, hi in nu_box]
    beta = float(rng.uniform(0.01, 0.95 if kind == "sectional" else 0.49))
    return beta, LiftParams(c3, c3 / (4.0 * b), *nu)


def run_parity_audit(samples: int = 100, seed: int = 0) -> ParityReport:
    """Compare closed forms against the quadrature oracle on `samples`
    random tuples per kind, redrawing any whose closed form is inf; `seed`
    is an integer >= 0 (a bool is refused).  Every tuple of a kind is drawn
    before one batched oracle call evaluates them all."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise DomainError(f"samples must be an integer >= 1, got {samples!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    samples, seed = int(samples), int(seed)
    rng = np.random.default_rng(seed)
    records = []
    for kind, spec in AUDITED.items():
        betas, params, closed = [], [], []
        for _ in range(samples):
            beta, p = sample_params(kind, rng)
            while (value := spec.set_term_at(beta, p)) == math.inf:
                beta, p = sample_params(kind, rng)
            betas.append(beta)
            params.append(p)
            closed.append(value)
        oracles = exp_set_term_oracle(spec.integrand, params, betas)
        records += [ParityRecord(kind, *row) for row in zip(betas, params, closed, oracles)]
    return ParityReport(seed=seed, samples_per_kind=samples,
                        tolerance=TOLERANCE, records=tuple(records))
