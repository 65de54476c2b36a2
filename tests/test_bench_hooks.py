"""The benchmark reaches l1lab's layers through module attributes: the
tracer rebinds each (module, attribute) of its TARGETS, and the lifted-table
workload rebinds the lifted margins to run its probes inside lifted solves.
A renamed or deleted attribute would silently drop a traced layer or the
probes, so each must name a callable in l1lab.  The LP counts the bench
reports through empirical.linprog must be the oracles' whole enumeration."""

import importlib
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from l1lab import empirical

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from l1bench import tracer, workloads  # noqa: E402

HOOKS = sorted({(module, attr) for _layer, module, attr, _how in tracer.TARGETS}
               | set(workloads.LiftedTable.margins))


@pytest.mark.parametrize("module, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_bench_hook_names_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"l1lab.{module}"), attr, None))


def test_traced_lp_counts_are_the_oracles_enumeration(monkeypatch):
    # the bench reports empirical.linprog.calls and empirical.nsp.lps_per_call
    # by rebinding empirical.linprog; where the properties hold no oracle
    # stops early, so every call makes its whole enumeration through that
    # name: 2^(k-1) sign patterns per support in the general model, one LP
    # per support in the nonnegative one
    assert ("empirical", "linprog") in {(module, attr) for _l, module, attr, _h in tracer.TARGETS}
    calls = []
    real = empirical.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(empirical, "linprog", counting)
    A = np.random.default_rng(0).standard_normal((8, 10))
    for nonneg in (False, True):
        for k in (1, 2, 3):
            calls.clear()
            assert empirical.sectional_nullspace_holds(A, list(range(k)), nonneg=nonneg)
            assert len(calls) == (1 if nonneg else 2 ** (k - 1))
        for k in (1, 2):
            calls.clear()
            assert empirical.strong_nullspace_holds(A, k, nonneg=nonneg)
            assert len(calls) == comb(10, k) * (1 if nonneg else 2 ** (k - 1))
