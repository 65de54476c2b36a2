"""Run-time configuration.

Precedence: explicit overrides (CLI flags) > the key=value file named by the
``L1LAB_CONFIG`` environment variable > built-in defaults.
"""

from __future__ import annotations

import dataclasses
import math
import os

from .errors import DomainError

ENV_VAR = "L1LAB_CONFIG"


@dataclasses.dataclass(frozen=True)
class Config:
    # threshold bisection
    tol_beta: float = 1e-5
    feasibility_margin: float = 1e-9   # strict margin: feasible iff total < -margin
    # empirical verification
    recovery_tol: float = 1e-5
    bp_max_iter: int = 30000
    bp_tol: float = 1e-7
    # parallelism (None -> os.cpu_count())
    jobs: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tol_beta) and self.tol_beta >= 1e-5):
            raise DomainError(f"tol_beta must be finite and >= 1e-5, got {self.tol_beta}")
        if not (math.isfinite(self.feasibility_margin) and self.feasibility_margin >= 0):
            raise DomainError("feasibility_margin must be finite and >= 0, "
                              f"got {self.feasibility_margin}")
        if self.jobs is not None and self.jobs < 1:
            raise DomainError(f"jobs must be >= 1 (or unset for all cores), got {self.jobs}")

    def effective_jobs(self) -> int:
        return self.jobs or os.cpu_count() or 1


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Config)}


def _coerce(name, raw):
    """int or float by the field's declared type ("int", "int | None", ...)."""
    return (int if _FIELD_TYPES[name].startswith("int") else float)(raw.strip())


def load_config(overrides: dict | None = None) -> Config:
    """Build a Config from defaults, the L1LAB_CONFIG file, then overrides."""
    values = {}
    path = os.environ.get(ENV_VAR)
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in _FIELD_TYPES:
                    raise KeyError(f"unknown config key {key!r} in {path}")
                values[key] = _coerce(key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise KeyError(f"unknown config key {key!r}")
        values[key] = val
    return Config(**values)


DEFAULT = Config()
