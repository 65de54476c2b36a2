"""Smoke tests of the benchmark harness at tiny workload sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from l1bench import published as pub  # noqa: E402
from l1bench import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to seconds of work and keep outputs in tmp_path."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(wl.LiftedTable, "plan_pairs", (("sectional", 0.1),))
    monkeypatch.setattr(wl.LiftedTable, "kinds", ("sectional",))
    monkeypatch.setattr(wl.LiftedTable, "table_alphas", (0.1, 0.5))
    monkeypatch.setattr(wl.DirectCurves, "step", 0.2)
    monkeypatch.setattr(wl.DirectCurves, "slices", 2)
    monkeypatch.setattr(wl.DirectCurves, "audit_samples", 5)
    monkeypatch.setattr(wl.DirectCurves, "table_alphas", (0.1, 0.5))
    monkeypatch.setattr(wl.EmpiricalVerify, "n", 60)
    monkeypatch.setattr(wl.EmpiricalVerify, "trials", 10)
    monkeypatch.setattr(wl.EmpiricalVerify, "offsets", (-0.15, 0.15))
    monkeypatch.setattr(wl.EmpiricalVerify, "nsp_n", 8)
    monkeypatch.setattr(wl.EmpiricalVerify, "nsp_m", 6)
    monkeypatch.setattr(wl.EmpiricalVerify, "planted", 1)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    detail = json.loads(lines[-2])["detail"]
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    result, detail = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0, detail["findings"]
    assert result["correct"] is True


def test_wrong_expected_beta_is_reported(tiny, capsys, monkeypatch):
    monkeypatch.setitem(pub.SECTIONAL_DIRECT, 0.1, pub.SECTIONAL_DIRECT[0.1] + 0.01)
    result, detail = _run(capsys, "direct-curves", 0)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert detail["failed_frac"] > 0
    assert any("alpha=0.1" in f for f in detail["findings"])


def test_declared_workloads_match_harness():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lifted-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_factor_is_local_and_excludes_probe_time(monkeypatch):
    from l1bench import reference

    monkeypatch.setattr(reference, "NEAREST", 1)
    ref = reference.Reference(None)
    # probes once a second: nominal speed until t = 10, then half as fast
    for t in range(20):
        slow = 1.0 if t < 10 else 2.0
        ref.stamps.append(float(t))
        ref.times.append([reference.NOMINAL_S[name] * slow for name, _ in reference.COMPONENTS])
    assert ref.factor(2.0, 2.5) == pytest.approx(1.0)
    assert ref.factor(14.0, 14.5) == pytest.approx(0.5)
    # cut at the probes inside, each part weighted by its length
    assert ref.factor(7.5, 12.5) == pytest.approx(0.75)
    assert ref.normalise([[(14.0, 14.5, 0.4), (2.0, 2.5, 0.1)]]) == [pytest.approx(0.3)]

    rec = wl.Recorder(reference.Reference(0.0))
    mark = rec.start()
    rec.ref.maybe_probe()
    t0, t1, seconds = rec.piece(mark)
    assert rec.ref.spent > 0
    assert seconds == pytest.approx(t1 - t0 - rec.ref.spent)
