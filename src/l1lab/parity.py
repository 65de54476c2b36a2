"""Closed-form vs quadrature-oracle parity auditing.

Every lifted set term has two evaluation routes: the analytic closed form
(fast, used by the optimizers) and the quadrature oracle that integrates
the exponent definition directly (slow, authoritative).  The audit samples
random valid parameter tuples per threshold kind and reports the worst
relative deviation between the two routes.  A deviation beyond the
tolerance is a failure; there is no registry of tolerated deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lift_core import LiftParams, exp_set_term_oracle, kind_table

AUDITED = {name: kind.lifted for name, kind in kind_table().items() if kind.lifted}


@dataclass(frozen=True)
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
        recs = [r for r in self.records if kind is None or r.kind == kind]
        return max((r.rel_dev for r in recs), default=0.0)

    def failures(self) -> list[ParityRecord]:
        return [r for r in self.records if r.rel_dev > self.tolerance]

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
    """One random valid parameter tuple for the given kind.

    b = c3/(4*gamma) is kept below 0.45 so the quadrature window stays
    moderate; betas cover the full relevant range of each kind.
    """
    c3 = float(np.exp(rng.uniform(math.log(0.02), math.log(3.0))))
    b = float(rng.uniform(0.02, 0.45))
    gamma = c3 / (4.0 * b)
    nu1 = float(rng.uniform(0.0, 3.0))
    nu2 = float(rng.uniform(0.0, 3.0)) if kind != "sectional" else 0.0
    beta_hi = 0.95 if kind == "sectional" else 0.49
    beta = float(rng.uniform(0.01, beta_hi))
    return beta, LiftParams(c3=c3, gamma=gamma, nu1=nu1, nu2=nu2)


def run_parity_audit(samples: int = 100, seed: int = 0,
                     tolerance: float = 1e-6) -> ParityReport:
    """Compare closed forms against the quadrature oracle on random tuples."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    records = []
    for kind, spec in AUDITED.items():
        for _ in range(samples):
            beta, params = sample_params(kind, rng)
            records.append(ParityRecord(
                kind=kind, beta=beta, params=params,
                closed=spec.set_term_at(beta, params),
                oracle=exp_set_term_oracle(spec.integrand, params, beta)))
    return ParityReport(seed=seed, samples_per_kind=samples,
                        tolerance=tolerance, records=tuple(records))
