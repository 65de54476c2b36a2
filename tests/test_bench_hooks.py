"""The benchmark reaches l1lab's layers through module attributes: the
tracer rebinds each (module, attribute) of its TARGETS, and the lifted-table
workload rebinds the lifted margins to run its probes inside lifted solves.
A renamed or deleted attribute would silently drop a traced layer or the
probes, so each must name a callable in l1lab, except the targets the
library dropped on purpose, which the tracer must report as absent."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from l1bench import tracer, workloads  # noqa: E402

# the null-space oracles enumerate vertices and solve no LP, so the bench's
# empirical.linprog layer (calls, and empirical.nsp.lps_per_call) reads 0;
# the direct and weak thresholds are Newton solves, so numerics.find_root
# (the bracketed root solve they replaced) reads 0 too; a lifted threshold
# is one ratio maximization, so lift_core.minimize_lifted_total (the
# certificate walk's probe) reads 0
RETIRED = {("empirical", "linprog"), ("numerics", "find_root"),
           ("lift_core", "minimize_lifted_total")}
HOOKS = sorted(({(module, attr) for _layer, module, attr, _how in tracer.TARGETS}
                | set(workloads.LiftedTable.margins)) - RETIRED)


@pytest.mark.parametrize("module, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_bench_hook_names_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"l1lab.{module}"), attr, None))


def test_retired_linprog_hook_is_an_absent_layer():
    assert RETIRED <= {(module, attr) for _l, module, attr, _h in tracer.TARGETS}
    for module, attr in RETIRED:
        assert not hasattr(importlib.import_module(f"l1lab.{module}"), attr)
    traced = tracer.Tracer()
    traced.install()
    try:
        assert {"empirical.linprog", "numerics.find_root",
                "lift_core.minimize_lifted_total"} <= set(traced.absent)
    finally:
        traced.uninstall()


@pytest.mark.parametrize("kind, pieces", [("sectional", 2), ("strong", 1), ("strong_nonneg", 1)])
def test_the_oracle_reaches_the_traced_quadrature_once_per_piece(monkeypatch, kind, pieces):
    # the traced direct-curves run counts numerics.gauss_expectation calls:
    # the oracle must look the attribute up at call time, once per ExpPiece
    numerics = importlib.import_module("l1lab.numerics")
    lift_core = importlib.import_module("l1lab.lift_core")
    quadrature = numerics.gauss_expectation
    calls = []

    def counted(*args, **kwargs):
        calls.append(kind)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(numerics, "gauss_expectation", counted)
    spec = lift_core.kind_table()[kind]
    params = lift_core.LiftParams(c3=1.5, gamma=2.0, nu1=0.4, nu2=0.3)
    assert len(spec.integrand(params, 0.2)[1]) == pieces
    assert lift_core.exp_set_term_oracle(spec.integrand, params, 0.2) == pytest.approx(
        spec.set_term_at(0.2, params), rel=1e-6)
    assert len(calls) == pieces


@pytest.mark.parametrize("kind, pieces", [("sectional", 2), ("strong", 1), ("strong_nonneg", 1)])
def test_a_batched_oracle_call_reaches_the_traced_quadrature_once_per_piece(monkeypatch, kind,
                                                                            pieces):
    # the parity audit makes one oracle call per kind: over its 60 tuples
    # that call must still reach numerics.gauss_expectation through the
    # module attribute, once per ExpPiece for the whole batch
    numerics = importlib.import_module("l1lab.numerics")
    lift_core = importlib.import_module("l1lab.lift_core")
    parity = importlib.import_module("l1lab.parity")
    records = [r for r in parity.run_parity_audit(samples=60, seed=0).records if r.kind == kind]
    quadrature = numerics.gauss_expectation
    calls = []

    def counted(*args, **kwargs):
        calls.append(kind)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(numerics, "gauss_expectation", counted)
    spec = lift_core.kind_table()[kind]
    values = lift_core.exp_set_term_oracle(spec.integrand, [r.params for r in records],
                                           [r.beta for r in records])
    assert len(values) == len(records) == 60
    assert values == [r.oracle for r in records]
    assert len(calls) == pieces


@pytest.mark.parametrize("kind, module, attr", [
    ("sectional", "thresholds_general", "sectional_exp_moments"),
    ("strong", "thresholds_general", "strong_exp_moment"),
    ("strong_nonneg", "thresholds_nonneg", "nonneg_exp_moment"),
])
def test_a_lifted_probe_reaches_the_traced_moment_once_per_evaluation(monkeypatch, kind,
                                                                      module, attr):
    # the traced lifted-table run counts the moment and quadratic-integral
    # calls: a lifted solve must look both attributes up at call time, the
    # moment once per evaluation of the ratio profile and once more for the
    # reported total
    numerics = importlib.import_module("l1lab.numerics")
    lift_core = importlib.import_module("l1lab.lift_core")
    target = importlib.import_module(f"l1lab.{module}")
    calls = {"moment": 0, "integral": 0, "evaluations": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(target, attr, counting("moment", getattr(target, attr)))
    monkeypatch.setattr(numerics, "gaussian_quadratic_integral",
                        counting("integral", numerics.gaussian_quadratic_integral))
    ratio_profile = lift_core._ratio_profile
    monkeypatch.setattr(lift_core, "_ratio_profile", lambda *args: counting(
        "evaluations", ratio_profile(*args)))
    lift_core.threshold_bisect(0.5, kind, "lifted")
    assert calls["evaluations"] > 2
    assert calls["moment"] == calls["evaluations"] + 1
    assert calls["integral"] >= calls["moment"]
