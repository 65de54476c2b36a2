"""Closed forms against the quadrature oracle over the optimizer's whole box."""

import math

import pytest

from l1lab.errors import DomainError
from l1lab.lift_core import SEARCH_BOX, LiftParams, exp_set_term_oracle
from l1lab.parity import AUDITED, TOLERANCE, ParityRecord, ParityReport, run_parity_audit


def test_closed_forms_match_the_oracle_over_the_optimizer_box():
    # lifted optima reach c3 ~ 111, b within 4e-5 of 1/2 and nu2 ~ 66: the
    # audit's draws cover all of SEARCH_BOX, and pass there
    report = run_parity_audit(samples=200, seed=0)
    assert report.passed, report.failures()[:3]
    for kind, spec in AUDITED.items():
        xs = [(r.params.c3, r.params.b, r.params.nu1, r.params.nu2)
              for r in report.records if r.kind == kind]
        assert len(xs) == 200
        box = SEARCH_BOX[:2 + spec.n_extra]
        assert all(lo <= v <= hi for x in xs for v, (lo, hi) in zip(x, box))
        assert max(x[0] for x in xs) > 100.0
        assert min(0.5 - x[1] for x in xs) < 1e-4
        assert max(x[2] for x in xs) > 7.0
        assert spec.n_extra == 1 or max(x[3] for x in xs) > 100.0


@pytest.mark.parametrize("kind, beta, params", [
    # off by 5.1e-6 while a short quadrature segment kept one panel
    ("strong_nonneg", 0.09105889676351142, LiftParams(
        0.9752666691778795, 0.48783723028702103, 0.47230044480385636, 187.87508946770023)),
    # b = 1/2 - 5.7e-7: rounding keeps successive estimates 1e-8 apart
    ("sectional", 0.11147799531303816,
     LiftParams(37.986835944156034, 18.993439681019428, 0.039177004595829415)),
], ids=["short-segment", "rounding-floor"])
def test_closed_form_matches_the_oracle_at_a_pinned_tuple(kind, beta, params):
    closed = AUDITED[kind].set_term_at(beta, params)
    oracle = exp_set_term_oracle(AUDITED[kind].integrand, params, beta)
    assert abs(closed - oracle) <= TOLERANCE * abs(oracle)


@pytest.mark.parametrize("samples", [0, -3, 2.5, "10", None])
def test_audit_rejects_a_bad_sample_count(monkeypatch, samples):
    monkeypatch.setattr("l1lab.parity.sample_params", None)  # nothing is drawn
    with pytest.raises(DomainError, match="samples"):
        run_parity_audit(samples=samples)


@pytest.mark.parametrize("seed", [-1, 2.5, None])
def test_audit_rejects_a_bad_seed(monkeypatch, seed):
    monkeypatch.setattr("l1lab.parity.sample_params", None)  # nothing is drawn
    with pytest.raises(DomainError, match="seed"):
        run_parity_audit(samples=2, seed=seed)


@pytest.mark.parametrize("closed, oracle", [(math.nan, 1.0), (1.0, math.nan)],
                         ids=["nan-closed-form", "nan-oracle"])
def test_a_nan_deviation_fails_the_audit(closed, oracle):
    params = LiftParams(1.0, 1.0, 0.5)
    good = ParityRecord("sectional", 0.1, params, 1.0, 1.0)
    bad = ParityRecord("sectional", 0.1, params, closed, oracle)
    for records in [(bad, good), (good, bad)]:
        report = ParityReport(seed=0, samples_per_kind=2, tolerance=TOLERANCE,
                              records=records)
        assert [r is bad for r in report.failures()] == [True]
        assert not report.passed
        assert math.isnan(report.max_dev()) and math.isnan(report.max_dev("sectional"))
        assert report.to_dict()["n_failures"] == 1
