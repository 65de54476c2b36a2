"""Golden grid of lifted thresholds: 3 lifted kinds x 26 alpha.

golden_lifted_grid.json holds, for every (kind, alpha), the lifted beta,
its condition margin and the lift parameters at the optimum as float.hex,
or "range_error" where threshold_bisect raises ThresholdRangeError.  The
tests hold each point to the fixture within tol_beta, keep its margin below
-feasibility_margin, raise exactly at the fixture's error points, and keep
each kind's beta non-decreasing in alpha.

A change that moves beta on purpose regenerates the fixture by running

    PYTHONPATH=src python tests/test_golden_grid.py

and states its largest |delta beta| in CHANGES.md.
"""

import functools
import json
from pathlib import Path

import pytest

from l1lab import lift_core as lc
from l1lab.config import DEFAULT
from l1lab.reference_values import TABLE_ALPHAS_HIGH, TABLE_ALPHAS_LOW

FIXTURE = Path(__file__).resolve().parent / "golden_lifted_grid.json"
KINDS = ("sectional", "strong", "strong_nonneg")
# the table alphas, the half-steps 0.15..0.85 between them, and the small-alpha end
ALPHAS = tuple(sorted(TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH
                      + tuple(round(0.15 + 0.1 * i, 2) for i in range(8))
                      + (0.001, 0.002, 0.003)))
RANGE_ERROR = "range_error"


@functools.cache
def solve(kind, alpha):
    """The lifted ThresholdResult at (kind, alpha), or RANGE_ERROR."""
    try:
        return lc.threshold_bisect(alpha, kind, "lifted")
    except lc.ThresholdRangeError:
        return RANGE_ERROR


def record(result):
    """The fixture entry of one solve: hex floats, or RANGE_ERROR."""
    if result == RANGE_ERROR:
        return RANGE_ERROR
    p = result.params_at_optimum
    return {name: float(value).hex() for name, value in (
        ("beta", result.beta), ("margin", result.condition_margin),
        ("c3", p.c3), ("gamma", p.gamma), ("nu1", p.nu1), ("nu2", p.nu2))}


@functools.cache
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("alpha", ALPHAS, ids=repr)
@pytest.mark.parametrize("kind", KINDS)
def test_lifted_beta_matches_the_golden_grid(kind, alpha):
    want = golden()[kind][repr(alpha)]
    got = solve(kind, alpha)
    if want == RANGE_ERROR:
        assert got == RANGE_ERROR, f"{kind} at alpha={alpha} no longer raises"
        return
    assert got != RANGE_ERROR, f"{kind} at alpha={alpha} now raises ThresholdRangeError"
    assert abs(got.beta - float.fromhex(want["beta"])) <= DEFAULT.tol_beta
    assert got.condition_margin < -DEFAULT.feasibility_margin


@pytest.mark.parametrize("kind", KINDS)
def test_lifted_beta_is_non_decreasing_in_alpha(kind):
    betas = [r.beta for r in (solve(kind, a) for a in ALPHAS) if r != RANGE_ERROR]
    assert all(a <= b for a, b in zip(betas, betas[1:]))


def main():
    grid = {kind: {repr(alpha): record(solve(kind, alpha)) for alpha in ALPHAS}
            for kind in KINDS}
    FIXTURE.write_text(json.dumps(grid, indent=1) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
