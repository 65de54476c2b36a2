"""Command-line interface: exit codes, formats, determinism, resumability."""

import json
import os

import pytest

from l1lab import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# exit codes and validation
# ---------------------------------------------------------------------------

def test_threshold_invalid_alpha_exits_2(capsys):
    code, _, err = run_cli(["threshold", "--alpha", "1.5", "--kind", "sectional"],
                           capsys)
    assert code == 2
    assert "alpha" in err


def test_table_bad_which_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--which", "7"])
    assert exc.value.code == 2


def test_tol_below_floor_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["threshold", "--alpha", "0.5", "--kind", "weak", "--tol", "1e-6"])
    assert exc.value.code == 2


def test_audit_zero_samples_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "--samples", "0"])
    assert exc.value.code == 2


def test_verify_over_cap_exits_2(capsys):
    code, _, err = run_cli(
        ["verify", "--mode", "strong", "--n", "40", "--alpha", "0.75",
         "--beta", "0.0625"], capsys)
    assert code == 2
    assert "capped at n <= 18" in err


def test_curve_empty_grid_exits_2(capsys):
    code, _, err = run_cli(
        ["curve", "--kind", "weak", "--alpha-grid", "0.5:0.4:0.1",
         "--out-file", "/tmp/_l1lab_nogrid.csv"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# threshold output formats
# ---------------------------------------------------------------------------

def test_threshold_json_and_csv_agree(capsys):
    code, out, _ = run_cli(
        ["threshold", "--alpha", "0.3", "--kind", "sectional",
         "--method", "direct", "--out", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == pytest.approx(0.0481, abs=5e-4)

    code, out, _ = run_cli(
        ["threshold", "--alpha", "0.3", "--kind", "sectional",
         "--method", "direct", "--out", "csv"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["beta"]) == payload["beta"]


def test_threshold_weak_ignores_method(capsys):
    code, out, _ = run_cli(
        ["threshold", "--alpha", "0.3", "--kind", "weak",
         "--method", "lifted", "--out", "json"], capsys)
    assert code == 0
    assert json.loads(out)["method"] == "direct"


def test_threshold_below_bisection_floor_exits_3(capsys):
    # the strong threshold at alpha=0.001 lies below the beta floor of 1e-4
    code, _, err = run_cli(
        ["threshold", "--alpha", "0.001", "--kind", "strong",
         "--method", "direct"], capsys)
    assert code == 3
    assert "bisection floor" in err


def test_table_matches_threshold_command(capsys, monkeypatch):
    # point the table registry at a small synthetic layout so the equality
    # check stays cheap; the code path is the production one
    from l1lab import reference_values as rv

    spec = rv.TableSpec(1, "sectional", (0.25, 0.45), ("direct",))
    monkeypatch.setitem(cli.TABLES, 1, spec)
    code, out, _ = run_cli(["table", "--which", "1", "--out", "json"], capsys)
    assert code == 0
    rows = {row["alpha"]: row for row in json.loads(out)["rows"]}
    for alpha in (0.25, 0.45):
        code, tout, _ = run_cli(
            ["threshold", "--alpha", str(alpha), "--kind", "sectional",
             "--method", "direct", "--out", "json"], capsys)
        assert code == 0
        assert abs(json.loads(tout)["beta"] - rows[alpha]["direct"]) <= 1e-6


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_deterministic_and_passing(capsys):
    code1, out1, _ = run_cli(["audit", "--samples", "25", "--seed", "9"], capsys)
    code2, out2, _ = run_cli(["audit", "--samples", "25", "--seed", "9"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["n_failures"] == 0


# ---------------------------------------------------------------------------
# curve files
# ---------------------------------------------------------------------------

def test_curve_byte_identical_rerun_and_resume(tmp_path, capsys):
    out = tmp_path / "weak.csv"
    args = ["curve", "--kind", "weak", "--alpha-grid", "0.2:0.6:0.2",
            "--out-file", str(out)]
    assert cli.main(args) == 0
    capsys.readouterr()
    first = out.read_bytes()

    # rerun: byte identical
    assert cli.main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == first

    # drop the middle row: resume recomputes only that point and the bytes
    # still come out identical
    lines = first.decode().splitlines()
    partial = "\n".join(lines[:3] + lines[4:]) + "\n"
    out.write_text(partial)
    assert cli.main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_curve_failed_point_nan_sentinel_and_exit_3(tmp_path, capsys):
    # alpha=0.001 drives the strong direct threshold below the beta floor:
    # that row is written with NaN sentinels and the command exits 3
    out = tmp_path / "partial.csv"
    code, _, err = run_cli(
        ["curve", "--kind", "strong", "--method", "direct", "--alpha-grid",
         "0.001:0.301:0.3", "--out-file", str(out)], capsys)
    assert code == 3
    lines = out.read_text().splitlines()
    assert lines[2].startswith("0.001,nan,nan")
    assert lines[3].startswith("0.301,0.015")  # direct strong bound there


def test_curve_pool_size_does_not_change_bytes(tmp_path, capsys):
    outs = []
    for jobs, name in ((1, "j1.csv"), (2, "j2.csv")):
        path = tmp_path / name
        assert cli.main(["--jobs", str(jobs), "curve", "--kind", "sectional",
                         "--method", "direct", "--alpha-grid", "0.2:0.6:0.2",
                         "--out-file", str(path)]) == 0
        capsys.readouterr()
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_curve_flag_mismatch_exits_2(tmp_path, capsys):
    out = tmp_path / "weak.csv"
    assert cli.main(["curve", "--kind", "weak", "--alpha-grid", "0.3:0.5:0.2",
                     "--out-file", str(out)]) == 0
    capsys.readouterr()
    code, _, err = run_cli(["curve", "--kind", "weak", "--alpha-grid",
                            "0.3:0.5:0.1", "--out-file", str(out)], capsys)
    assert code == 2
    assert "different flags" in err


def test_curve_json_and_csv_values_identical(tmp_path, capsys):
    csv_file = tmp_path / "c.csv"
    json_file = tmp_path / "c.json"
    base = ["curve", "--kind", "sectional", "--method", "direct",
            "--alpha-grid", "0.3:0.5:0.1"]
    assert cli.main(base + ["--out-file", str(csv_file)]) == 0
    assert cli.main(base + ["--out-file", str(json_file), "--format", "json"]) == 0
    capsys.readouterr()

    payload = json.loads(json_file.read_text())
    rows = csv_file.read_text().splitlines()[2:]
    assert len(rows) == len(payload["points"]) == 3
    for row, point in zip(rows, payload["points"]):
        alpha, beta = row.split(",")[:2]
        assert float(alpha) == point["alpha"]
        assert float(beta) == point["beta"]
    alphas = [p["alpha"] for p in payload["points"]]
    assert alphas == sorted(alphas)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_weak_deterministic(capsys):
    args = ["verify", "--mode", "weak", "--alpha", "0.9", "--beta", "0.1",
            "--n", "40", "--trials", "5", "--seed", "3"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["m"] == 36 and payload["k"] == 4
    assert len(payload["per_trial"]) == 5
    assert 0.0 <= payload["rate"] <= 1.0


def test_verify_strong_small(capsys):
    code, out, _ = run_cli(
        ["verify", "--mode", "strong", "--alpha", "0.75", "--beta", "0.0625",
         "--n", "16", "--trials", "4", "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 1
    assert len(payload["per_matrix"]) == 4
    assert all(isinstance(mat["holds"], bool) for mat in payload["per_matrix"])


def test_verify_sectional_reports_support(capsys):
    code, out, _ = run_cli(
        ["verify", "--mode", "sectional", "--alpha", "0.75", "--beta", "0.125",
         "--n", "16", "--trials", "3", "--seed", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(len(mat["support"]) == payload["k"] for mat in payload["per_matrix"])


def test_curve_honours_the_config_file(tmp_path, capsys, monkeypatch):
    # a wide feasibility margin lowers every direct threshold; it must reach
    # points solved in-process and points solved in the worker pool
    base = ["curve", "--kind", "sectional", "--method", "direct",
            "--alpha-grid", "0.3:0.5:0.2"]
    default = tmp_path / "default.csv"
    assert cli.main(["--jobs", "1", *base, "--out-file", str(default)]) == 0
    cfg = tmp_path / "l1lab.cfg"
    cfg.write_text("feasibility_margin = 0.01\n")
    monkeypatch.setenv("L1LAB_CONFIG", str(cfg))
    outs = []
    for jobs in (1, 2):
        path = tmp_path / f"wide{jobs}.csv"
        assert cli.main(["--jobs", str(jobs), *base, "--out-file", str(path)]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]

    def betas(raw):
        return [float(line.split(",")[1]) for line in raw.decode().splitlines()[2:]]

    for wide, normal in zip(betas(outs[0]), betas(default.read_bytes())):
        assert wide < normal - 1e-3
