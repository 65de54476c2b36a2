"""Closed forms against the quadrature oracle over the optimizer's whole box."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from l1lab.errors import DomainError
from l1lab.lift_core import SEARCH_BOX, LiftParams, exp_set_term_oracle
from l1lab.parity import AUDITED, TOLERANCE, ParityRecord, ParityReport, run_parity_audit

# golden_parity_audit.json holds, for two seeds at 60 samples per kind, the
# sha256 digest of every record's (kind, beta, params, closed) and every
# oracle value, as float.hex, recorded when each tuple made its own oracle
# call
PINS = json.loads((Path(__file__).resolve().parent / "golden_parity_audit.json").read_text())

# the tuples test_closed_form_matches_the_oracle_at_a_pinned_tuple pins
PINNED_TUPLES = [
    # off by 5.1e-6 while a short quadrature segment kept one panel
    ("strong_nonneg", 0.09105889676351142, LiftParams(
        0.9752666691778795, 0.48783723028702103, 0.47230044480385636, 187.87508946770023)),
    # b = 1/2 - 5.7e-7: rounding keeps successive estimates 1e-8 apart
    ("sectional", 0.11147799531303816,
     LiftParams(37.986835944156034, 18.993439681019428, 0.039177004595829415)),
]
PINNED_IDS = ["short-segment", "rounding-floor"]


def audit_digest(records) -> str:
    """sha256 of each record's kind, beta, params and closed form, one line
    per record, the floats as float.hex."""
    lines = (" ".join([r.kind, *(float.hex(v) for v in (
        r.beta, r.params.c3, r.params.gamma, r.params.nu1, r.params.nu2, r.closed))])
        for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


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


@pytest.mark.parametrize("kind, beta, params", PINNED_TUPLES, ids=PINNED_IDS)
def test_closed_form_matches_the_oracle_at_a_pinned_tuple(kind, beta, params):
    closed = AUDITED[kind].set_term_at(beta, params)
    oracle = exp_set_term_oracle(AUDITED[kind].integrand, params, beta)
    assert abs(closed - oracle) <= TOLERANCE * abs(oracle)


@pytest.mark.parametrize("seed", sorted(PINS["seeds"]))
def test_the_audit_keeps_its_pinned_draws_and_oracle_values(seed):
    # batching the oracle calls changes no draw and no closed form, bit for
    # bit, and moves no oracle value by more than 1e-10 relative
    pin = PINS["seeds"][seed]
    report = run_parity_audit(samples=PINS["samples"], seed=int(seed))
    assert audit_digest(report.records) == pin["digest"]
    want = [float.fromhex(v) for v in pin["oracle"]]
    assert len(want) == len(report.records) == 3 * PINS["samples"]
    for r, value in zip(report.records, want):
        assert abs(r.oracle - value) <= 1e-10 * abs(value), (r.kind, r.beta, r.params)


@pytest.mark.parametrize("kind, beta, params", PINNED_TUPLES, ids=PINNED_IDS)
def test_a_lone_oracle_tuple_gets_its_value_in_a_batch(kind, beta, params):
    # the pinned tuple needs more doublings (short-segment) or the rounding
    # acceptance (rounding-floor) in the middle of a batch of its kind whose
    # other tuples converge at 128 panels; each keeps its own value
    spec = AUDITED[kind]
    drawn = [(r.params, r.beta) for r in run_parity_audit(samples=12, seed=5).records
             if r.kind == kind]
    tuples = drawn[:6] + [(params, beta)] + drawn[6:]
    batch = exp_set_term_oracle(spec.integrand, [p for p, _ in tuples], [b for _, b in tuples])
    assert len(batch) == len(tuples)
    for (p, b), value in zip(tuples, batch):
        alone = exp_set_term_oracle(spec.integrand, p, b)
        assert abs(value - alone) <= 1e-14 * abs(alone), (p, b)


def test_the_audit_stores_numpy_integer_arguments_as_ints():
    report = run_parity_audit(samples=np.int64(2), seed=np.int64(3))
    assert type(report.samples_per_kind) is int and type(report.seed) is int
    assert json.loads(json.dumps(report.to_dict())) == run_parity_audit(samples=2, seed=3).to_dict()


@pytest.mark.parametrize("samples", [0, -3, 2.5, "10", None, True, False])
def test_audit_rejects_a_bad_sample_count(monkeypatch, samples):
    monkeypatch.setattr("l1lab.parity.sample_params", None)  # nothing is drawn
    with pytest.raises(DomainError, match="samples"):
        run_parity_audit(samples=samples)


@pytest.mark.parametrize("seed", [-1, 2.5, None, True, False])
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
