"""The narrative demos run against the current API."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_lifted_bound_anatomy_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "04_lifted_bound_anatomy.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "0.1045" in out and "feasible: False" in out
