"""The narrative demos run against the current API."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_lifted_bound_anatomy_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "04_lifted_bound_anatomy.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "0.1045" in out and "feasible: False" in out


def test_threshold_curves_demo_writes_to_the_current_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "01_threshold_curves.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "strong <= sectional <= weak" in out
    assert "lifted >= direct within each kind" in out
    written = tmp_path / "threshold_curves.csv"
    assert f"wrote {written.resolve()}" in out
    rows = written.read_text().splitlines()
    assert rows[0].startswith("alpha,weak:direct,") and len(rows) == 10
