"""Command-line interface: exit codes, formats, determinism, resumability."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from l1lab import cli
from l1lab.errors import DomainError


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


def no_solve(*args, **kwargs):
    pytest.fail("a threshold solve started despite a bad setting")


@pytest.mark.parametrize("command", ["threshold", "curve"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_tol_not_finite_exits_2(tmp_path, monkeypatch, capsys, command, tol):
    monkeypatch.setattr(cli, "threshold_bisect", no_solve)
    where = (["--alpha", "0.5"] if command == "threshold"
             else ["--alpha-grid", "0.5:0.5:0.1", "--out-file", str(tmp_path / "c.csv")])
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *where, "--kind", "sectional", f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["feasibility_margin = -0.05", "feasibility_margin = nan",
                                  "tol_beta = nan", "tol_beta = inf"])
@pytest.mark.parametrize("method", ["direct", "lifted"])
def test_bad_config_file_exits_2(tmp_path, monkeypatch, capsys, line, method):
    monkeypatch.setattr(cli, "threshold_bisect", no_solve)
    cfg = tmp_path / "l1lab.cfg"
    cfg.write_text(line + "\n")
    monkeypatch.setenv("L1LAB_CONFIG", str(cfg))
    code, out, err = run_cli(["threshold", "--alpha", "0.5", "--kind", "sectional",
                              "--method", method], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and line.split()[0] in err


@pytest.mark.parametrize("line", ["bp_tol = 0", "bp_tol = nan", "recovery_tol = nan",
                                  "bp_max_iter = 0", "jobs = 2.5"])
def test_bad_solver_config_exits_2(tmp_path, monkeypatch, capsys, line):
    monkeypatch.setattr(cli.empirical, "solve_basis_pursuit", no_solve)
    cfg = tmp_path / "l1lab.cfg"
    cfg.write_text(line + "\n")
    monkeypatch.setenv("L1LAB_CONFIG", str(cfg))
    code, out, err = run_cli(["verify", "--mode", "weak", "--alpha", "0.5", "--beta", "0.1",
                              "--n", "40", "--trials", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and line.split()[0] in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(monkeypatch, capsys, jobs):
    monkeypatch.setattr(cli, "threshold_bisect", no_solve)
    code, out, err = run_cli(["--jobs", jobs, "threshold", "--alpha", "0.5",
                              "--kind", "sectional"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "jobs" in err


def test_audit_zero_samples_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "--samples", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode, n, alpha, beta, message", [
    ("strong", 40, 0.75, 0.0625, "capped at n <= 24; got n=40"),
    ("sectional", 30, 0.75, 0.1, "capped at n <= 24; got n=30"),
    # no cap on k: 12 x 24 at k = 12 is refused for the shape's 2,496,144 candidates
    ("strong", 24, 0.5, 0.5, "C(24, 13) = 2496144"),
    ("sectional", 5, 0.75, 2.0, "need 0 <= k <= n"),
    ("strong", 10**6, 0.75, 0.0, "capped at n <= 24; got n=1000000"),  # a 750000 x 10**6 matrix
    ("sectional", 10**6, 0.75, 0.0, "capped at n <= 24; got n=1000000"),
    ("sectional", 23, 0.4, 0.1, "C(23, 10) = 1144066"),
], ids=["strong-n", "sectional-n", "strong-k", "k-over-n", "strong-huge-n",
        "sectional-huge-n", "sectional-candidates"])
def test_verify_over_cap_exits_2(capsys, monkeypatch, mode, n, alpha, beta, message):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was drawn before the size check")

    monkeypatch.setattr(cli.np.random, "default_rng", no_matrix)
    code, _, err = run_cli(
        ["verify", "--mode", mode, "--n", str(n), "--alpha", str(alpha),
         "--beta", str(beta)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("mode", ["sectional", "strong"])
def test_verify_cap_check_at_huge_n_is_constant_time(capsys, monkeypatch, mode):
    # m = n - 1 has a single vertex candidate, C(n, n) = 1, but the matrix
    # itself is out of reach: the n bound refuses it without drawing it or
    # evaluating a binomial of n
    import math

    def refuse(*args, **kwargs):
        raise AssertionError("built before the size check")

    monkeypatch.setattr(cli.np.random, "default_rng", refuse)
    monkeypatch.setattr(math, "comb", refuse)
    code, _, err = run_cli(["verify", "--mode", mode, "--n", str(10**6),
                            "--alpha", "0.999999", "--beta", "0.000001"], capsys)
    assert code == 2
    assert "capped at n <= 24; got n=1000000" in err


@pytest.mark.parametrize("mode", ["weak", "sectional", "strong"])
@pytest.mark.parametrize("alpha", ["-0.5", "0", "1", "2.0"])
def test_verify_alpha_outside_unit_interval_exits_2(capsys, monkeypatch, mode, alpha):
    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was drawn despite a bad --alpha")

    monkeypatch.setattr(cli.np.random, "default_rng", no_instance)
    monkeypatch.setattr(cli.empirical, "generate_instance", no_instance)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--mode", mode, "--alpha", alpha, "--beta", "0.1",
                  "--n", "10", "--trials", "1"])
    assert exc.value.code == 2
    assert "--alpha must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["weak", "strong"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_verify_not_finite_exits_2(capsys, monkeypatch, mode, value, flag):
    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was drawn despite a bad setting")

    monkeypatch.setattr(cli.np.random, "default_rng", no_instance)
    monkeypatch.setattr(cli.empirical, "generate_instance", no_instance)
    args = {"--alpha": "0.5", "--beta": "0.1", flag: value}
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--mode", mode, "--n", "12",
                  *(item for pair in args.items() for item in pair)])
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


def _limit_memory():
    # a grid that never ends grows its list until this limit stops it
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("grid", ["nan:0.9:0.1", "0.1:nan:0.1", "0.1:inf:0.1",
                                  "0.1:0.9:nan", "-inf:0.9:0.1", "0.1:0.9:inf"])
def test_curve_grid_not_finite_exits_2(tmp_path, grid):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "l1lab.cli", "curve", "--kind", "weak",
         f"--alpha-grid={grid}", "--out-file", str(tmp_path / "c.csv")],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert "--alpha-grid parts must be finite" in proc.stderr
    assert not (tmp_path / "c.csv").exists()


def _no_grid_point(*args):
    pytest.fail("a grid point was built")


@pytest.mark.parametrize("grid", ["0.1:0.9:1e-300", f"0.1:0.9:{0.8 / 100_000!r}"],
                         ids=["step-1e-300", "just-over-cap"])
def test_curve_grid_over_the_point_cap_exits_2(tmp_path, monkeypatch, capsys, grid):
    # the grid loop rounds every point, so a module-level round that fails
    # the test shows that the check comes before the first point is made
    monkeypatch.setattr(cli, "round", _no_grid_point, raising=False)
    monkeypatch.setattr(cli, "threshold_bisect", no_solve)
    with pytest.raises(DomainError, match="at most 100000 points"):
        cli.parse_alpha_grid(grid)
    code, out, err = run_cli(["curve", "--kind", "weak", f"--alpha-grid={grid}",
                              "--out-file", str(tmp_path / "c.csv")], capsys)
    assert code == 2 and out == ""
    assert "at most 100000 points" in err
    assert not (tmp_path / "c.csv").exists()


def test_curve_grid_at_the_point_cap_is_accepted():
    grid = cli.parse_alpha_grid(f"0.1:0.9:{0.8 / 99_999!r}")
    assert len(grid) == cli.MAX_GRID_POINTS
    assert grid[0] == 0.1 and grid[-1] == 0.9


@pytest.mark.parametrize("grid", ["0.5:0.5000000004:1e-10", "0.1:0.10000000001:4e-13"])
def test_curve_grid_points_sharing_a_row_key_exit_2(tmp_path, monkeypatch, capsys, grid):
    # rows and resume are keyed by the 9-digit alpha text; two points with
    # one key would be solved twice and written as duplicate rows
    monkeypatch.setattr(cli, "threshold_bisect", no_solve)
    with pytest.raises(DomainError, match="both print as alpha="):
        cli.parse_alpha_grid(grid)
    code, out, err = run_cli(["curve", "--kind", "weak", f"--alpha-grid={grid}",
                              "--out-file", str(tmp_path / "c.csv")], capsys)
    assert code == 2 and out == ""
    assert "both print as alpha=" in err
    assert not (tmp_path / "c.csv").exists()


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

def spoil_middle_point(text, file_format):
    """A curve file's text with its middle point dropped (CSV) or cut to its alpha (JSON)."""
    if file_format == "json":
        payload = json.loads(text)
        payload["points"][1] = {"alpha": 0.4}
        return json.dumps(payload)
    lines = text.splitlines()
    return "\n".join(lines[:3] + lines[4:]) + "\n"


def test_curve_byte_identical_rerun_and_resume(tmp_path, monkeypatch, capsys):
    for file_format in ("csv", "json"):
        out = tmp_path / f"weak.{file_format}"
        args = ["curve", "--kind", "weak", "--alpha-grid", "0.2:0.6:0.2",
                "--out-file", str(out), "--format", file_format]
        assert cli.main(args) == 0
        capsys.readouterr()
        first = out.read_bytes()

        # rerun: byte identical, with nothing solved again
        with monkeypatch.context() as mp:
            mp.setattr(cli, "threshold_bisect", no_solve)
            assert cli.main(args) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

        # spoil the middle point: resume recomputes only that point and the
        # bytes still come out identical
        out.write_text(spoil_middle_point(first.decode(), file_format))
        solved = []

        def recording(alpha, *rest, _solve=cli.threshold_bisect):
            solved.append(alpha)
            return _solve(alpha, *rest)

        with monkeypatch.context() as mp:
            mp.setattr(cli, "threshold_bisect", recording)
            assert cli.main(args) == 0
        capsys.readouterr()
        assert out.read_bytes() == first and solved == [0.4], file_format

    # JSON points that are not a list
    out.write_text(json.dumps({**json.loads(first), "points": 5}))
    code, _, err = run_cli(args, capsys)
    assert code == 2 and "different flags" in err


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


def test_verify_weak_reports_what_decided_each_trial(capsys):
    # far above the weak curve every hit is certified; far below, the l1
    # cutoff ends every trial as a miss
    for alpha, decided_by, stat, rate in (("0.9", "certificate", "certified", 1.0),
                                          ("0.3", "l1_cutoff", "l1_cutoff", 0.0)):
        code, out, _ = run_cli(["verify", "--mode", "weak", "--alpha", alpha, "--beta", "0.2",
                                "--n", "40", "--trials", "4", "--seed", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] == rate
        trials = payload["per_trial"]
        assert [t["decided_by"] for t in trials] == [decided_by] * 4
        stats = payload["solver_stats"]
        assert stats[stat] == stats["certified"] + stats["l1_cutoff"] + stats["tolerance"] == 4
        if decided_by == "certificate":
            assert all(t["rel_error"] == 0.0 and t["iterations"] % 10 == 0 for t in trials)


@pytest.mark.parametrize("alpha, beta, seed, nonneg, rate", [
    ("0.34", "0.1", 1, False, 0.65),
    ("0.53", "0.2", 3, False, 0.55),
    ("0.26", "0.1", 2, True, 0.6),
], ids=["general-beta-0.1", "general-beta-0.2", "nonneg"])
def test_verify_weak_prints_the_decisions_of_weak_recovery_rate(capsys, alpha, beta, seed,
                                                                 nonneg, rate):
    # near the weak curve; without the l1 cutoff 5, 8 and 6 of these trials
    # ran to the 30,000-iteration budget and were printed as errors
    code, out, _ = run_cli(["verify", "--mode", "weak", "--alpha", alpha, "--beta", beta,
                            "--n", "100", "--trials", "20", "--seed", str(seed)]
                           + ["--nonneg"] * nonneg, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rate"] == rate == cli.empirical.weak_recovery_rate(
        float(alpha), float(beta), 100, 20, nonneg=nonneg, seed=seed)
    assert not any("error" in t for t in payload["per_trial"])
    stats = payload["solver_stats"]
    assert stats["certified"] + stats["l1_cutoff"] + stats["tolerance"] == 20


def test_verify_weak_nonneg_below_the_curve_prints_no_error_rows(capsys):
    code, out, _ = run_cli(["verify", "--mode", "weak", "--nonneg", "--alpha", "0.185",
                            "--beta", "0.1", "--n", "200", "--trials", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rate"] == 0.0
    assert [t["decided_by"] for t in payload["per_trial"]] == ["l1_cutoff"] * 3


@pytest.mark.parametrize("alpha, beta", [("0.5", "0.001"), ("0.99", "0.1")],
                         ids=["k-rounds-to-zero", "m-rounds-to-n"])
def test_verify_weak_refuses_the_shapes_weak_recovery_rate_refuses(capsys, monkeypatch,
                                                                  alpha, beta):
    monkeypatch.setattr(cli.empirical, "solve_basis_pursuit", no_solve)
    code, out, err = run_cli(["verify", "--mode", "weak", "--alpha", alpha, "--beta", beta,
                              "--n", "40"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: need round(alpha*n) >= round(beta*n) >= 1 and m < n")


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "weak", "--alpha", "0.5", "--beta", "0.1", "--n", "40"],
    ["verify", "--mode", "strong", "--alpha", "0.75", "--beta", "0.1", "--n", "16"],
    ["audit", "--samples", "2"],
], ids=["verify-weak", "verify-strong", "audit"])
def test_a_negative_seed_exits_2(capsys, argv):
    code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "seed" in err


def test_verify_strong_small(capsys):
    code, out, _ = run_cli(
        ["verify", "--mode", "strong", "--alpha", "0.75", "--beta", "0.0625",
         "--n", "16", "--trials", "4", "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 1
    assert len(payload["per_matrix"]) == 4
    assert all(isinstance(mat["holds"], bool) for mat in payload["per_matrix"])


@pytest.mark.parametrize("mode, beta", [("strong", "0.0625"), ("sectional", "0.125")])
def test_verify_margin_sign_agrees_with_holds(capsys, mode, beta):
    # general signs: the exact margin is negative iff the property holds;
    # the nonnegative model reports no margin
    args = ["verify", "--mode", mode, "--alpha", "0.5", "--beta", beta,
            "--n", "16", "--trials", "12", "--seed", "4"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    rows = json.loads(out)["per_matrix"]
    assert all((row["margin"] < 0) == row["holds"] for row in rows)
    assert {row["holds"] for row in rows} == {False, True}
    code, out, _ = run_cli(args + ["--nonneg"], capsys)
    assert code == 0
    assert all(row["margin"] is None for row in json.loads(out)["per_matrix"])


def test_verify_sectional_reports_support(capsys):
    code, out, _ = run_cli(
        ["verify", "--mode", "sectional", "--alpha", "0.75", "--beta", "0.125",
         "--n", "16", "--trials", "3", "--seed", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(len(mat["support"]) == payload["k"] for mat in payload["per_matrix"])


def test_verify_sectional_nonneg_runs_the_nonnegative_oracle(capsys):
    import numpy as np

    from l1lab import empirical

    args = ["verify", "--mode", "sectional", "--alpha", "0.5", "--beta", "0.25",
            "--n", "12", "--trials", "6", "--seed", "0"]
    holds = {}
    for nonneg in (False, True):
        code, out, _ = run_cli(args + ["--nonneg"] * nonneg, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["nonneg"] is nonneg
        holds[nonneg] = [mat["holds"] for mat in payload["per_matrix"]]
        for mat in payload["per_matrix"]:
            A = np.random.default_rng(mat["seed"]).standard_normal((6, 12))
            assert mat["holds"] == empirical.sectional_nullspace_holds(
                A, mat["support"], nonneg=nonneg)
    assert holds[False] != holds[True]


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
