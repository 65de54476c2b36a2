"""Golden grids of thresholds at 26 alpha: 3 lifted kinds, and the direct
method of all 5 kinds.

golden_lifted_grid.json holds, for every (kind, alpha), the lifted beta,
its condition margin and the lift parameters at the optimum as float.hex,
or "range_error" where threshold_bisect raises ThresholdRangeError.  The
tests hold each point to the fixture within tol_beta, keep its margin below
-feasibility_margin, raise exactly at the fixture's error points, and keep
each kind's beta non-decreasing in alpha.

golden_direct_grid.json holds the direct method's results in the same
format (a weak kind has no lift parameters), and the tests hold every
point to it bit for bit.

A change that moves beta on purpose regenerates both fixtures by running

    PYTHONPATH=src python tests/test_golden_grid.py

which prints, per method and kind, the largest |delta beta| against the
committed fixture before it overwrites it, and states that number in
CHANGES.md.
"""

import dataclasses
import functools
import json
from pathlib import Path

import pytest

from l1lab import lift_core as lc
from l1lab.config import DEFAULT
from l1lab.reference_values import TABLE_ALPHAS_HIGH, TABLE_ALPHAS_LOW

HERE = Path(__file__).resolve().parent
FIXTURES = {"lifted": HERE / "golden_lifted_grid.json", "direct": HERE / "golden_direct_grid.json"}
KINDS = {"lifted": ("sectional", "strong", "strong_nonneg"), "direct": tuple(lc.kind_table())}
# the table alphas, the half-steps 0.15..0.85 between them, and the small-alpha end
ALPHAS = tuple(sorted(TABLE_ALPHAS_LOW + TABLE_ALPHAS_HIGH
                      + tuple(round(0.15 + 0.1 * i, 2) for i in range(8))
                      + (0.001, 0.002, 0.003)))
RANGE_ERROR = "range_error"


@functools.cache
def solve(kind, alpha, method="lifted"):
    """The ThresholdResult at (kind, alpha, method), or RANGE_ERROR."""
    try:
        return lc.threshold_bisect(alpha, kind, method)
    except lc.ThresholdRangeError:
        return RANGE_ERROR


def record(result):
    """The fixture entry of one solve: hex floats, or RANGE_ERROR."""
    if result == RANGE_ERROR:
        return RANGE_ERROR
    fields = {"beta": result.beta, "margin": result.condition_margin}
    if result.params_at_optimum is not None:
        fields.update(dataclasses.asdict(result.params_at_optimum))
    return {name: float(value).hex() for name, value in fields.items()}


@functools.cache
def golden(method):
    return json.loads(FIXTURES[method].read_text())


@pytest.mark.parametrize("alpha", ALPHAS, ids=repr)
@pytest.mark.parametrize("kind", KINDS["lifted"])
def test_lifted_beta_matches_the_golden_grid(kind, alpha):
    want = golden("lifted")[kind][repr(alpha)]
    got = solve(kind, alpha)
    if want == RANGE_ERROR:
        assert got == RANGE_ERROR, f"{kind} at alpha={alpha} no longer raises"
        return
    assert got != RANGE_ERROR, f"{kind} at alpha={alpha} now raises ThresholdRangeError"
    assert abs(got.beta - float.fromhex(want["beta"])) <= DEFAULT.tol_beta
    assert got.condition_margin < -DEFAULT.feasibility_margin


@pytest.mark.parametrize("kind", KINDS["lifted"])
def test_lifted_beta_is_non_decreasing_in_alpha(kind):
    betas = [r.beta for r in (solve(kind, a) for a in ALPHAS) if r != RANGE_ERROR]
    assert all(a <= b for a, b in zip(betas, betas[1:]))


def solve_lifted_grid():
    """Solve every lifted point of the grid afresh, past solve's cache."""
    for kind in KINDS["lifted"]:
        for alpha in ALPHAS:
            try:
                lc.threshold_bisect(alpha, kind, "lifted")
            except lc.ThresholdRangeError:
                pass


def count_evaluations(monkeypatch):
    """Count, from now on, the lifted ratio profiles built in count[0] and
    their evaluations in count[1]."""
    count = [0, 0]
    ratio_profile = lc._ratio_profile

    def counted(*args):
        count[0] += 1
        profile = ratio_profile(*args)

        def evaluate(q):
            count[1] += 1
            return profile(q)
        return evaluate

    monkeypatch.setattr(lc, "_ratio_profile", counted)
    return count


def test_lifted_grid_probe_count_stays_under_its_ceiling(monkeypatch):
    # one ratio maximization per lifted solve, range errors included
    count = count_evaluations(monkeypatch)
    solve_lifted_grid()
    assert count[0] == len(KINDS["lifted"]) * len(ALPHAS)


# ceilings on ratio profile evaluations, whose deterministic counts are 99
# over the three lifted-table solves and 2,151 over the lifted grid; the
# certificate walk that the one ratio maximization replaced made 195 and 5,083
TABLE_EVALUATION_CEILING = 110
GRID_EVALUATION_CEILING = 2300
TABLE_PAIRS = (("sectional", 0.1), ("strong", 0.999), ("strong_nonneg", 0.1))


def test_lifted_table_evaluations_stay_under_their_ceiling(monkeypatch):
    count = count_evaluations(monkeypatch)
    for kind, alpha in TABLE_PAIRS:
        lc.threshold_bisect(alpha, kind, "lifted")
    assert count[1] <= TABLE_EVALUATION_CEILING


def test_lifted_grid_evaluations_stay_under_their_ceiling(monkeypatch):
    count = count_evaluations(monkeypatch)
    solve_lifted_grid()
    assert count[1] <= GRID_EVALUATION_CEILING


@pytest.mark.parametrize("alpha", ALPHAS, ids=repr)
@pytest.mark.parametrize("kind", KINDS["direct"])
def test_direct_result_matches_the_golden_grid_bit_for_bit(kind, alpha):
    assert record(solve(kind, alpha, "direct")) == golden("direct")[kind][repr(alpha)]


def largest_beta_moves(old, new):
    """kind -> the largest |delta beta| between two fixtures' points that
    are solved in both, and the points raising in one of them only."""
    moves = {}
    for kind, points in new.items():
        deltas, flipped = [0.0], []
        for alpha, entry in points.items():
            before = old.get(kind, {}).get(alpha, RANGE_ERROR)
            if RANGE_ERROR in (before, entry):
                if before != entry:
                    flipped.append(alpha)
                continue
            deltas.append(abs(float.fromhex(entry["beta"]) - float.fromhex(before["beta"])))
        moves[kind] = max(deltas), flipped
    return moves


def main():
    for method, path in FIXTURES.items():
        grid = {kind: {repr(alpha): record(solve(kind, alpha, method)) for alpha in ALPHAS}
                for kind in KINDS[method]}
        for kind, (delta, flipped) in largest_beta_moves(golden(method), grid).items():
            print(f"{method} {kind}: largest |delta beta| {delta:.3g}"
                  + (f", range errors changed at alpha {', '.join(flipped)}" if flipped else ""))
        path.write_text(json.dumps(grid, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
