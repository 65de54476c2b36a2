"""Configuration precedence: overrides > env file > defaults."""

import pytest

from l1lab.config import ENV_VAR, Config, load_config
from l1lab.errors import DomainError


def test_defaults():
    cfg = load_config()
    assert cfg == Config()
    assert cfg.tol_beta == 1e-5
    assert cfg.recovery_tol == 1e-5


def test_env_file_and_override_precedence(tmp_path, monkeypatch):
    path = tmp_path / "l1lab.cfg"
    path.write_text("# comment\n tol_beta = 2e-5 \nbp_max_iter=1234\n\n")
    monkeypatch.setenv(ENV_VAR, str(path))
    cfg = load_config()
    assert cfg.tol_beta == 2e-5
    assert cfg.bp_max_iter == 1234
    # explicit overrides beat the env file; None overrides are ignored
    cfg = load_config({"tol_beta": 5e-5, "jobs": None})
    assert cfg.tol_beta == 5e-5
    assert cfg.bp_max_iter == 1234
    assert cfg.jobs is None


def test_unknown_key_rejected(tmp_path, monkeypatch):
    # minimize_max_iter is a removed key: it must fail loudly, not be ignored
    for line in ("nonsense=1\n", "minimize_max_iter=4000\n"):
        path = tmp_path / "bad.cfg"
        path.write_text(line)
        monkeypatch.setenv(ENV_VAR, str(path))
        with pytest.raises(KeyError):
            load_config()
    monkeypatch.delenv(ENV_VAR)
    with pytest.raises(KeyError):
        load_config({"nonsense": 3})


def test_effective_jobs(monkeypatch):
    assert Config(jobs=3).effective_jobs() == 3
    assert Config(jobs=1).effective_jobs() == 1
    assert Config(jobs=None).effective_jobs() >= 1


@pytest.mark.parametrize("field, value", [
    ("tol_beta", float("nan")), ("tol_beta", float("inf")), ("tol_beta", 1e-6),
    ("tol_beta", -1.0), ("feasibility_margin", float("nan")),
    ("feasibility_margin", float("inf")), ("feasibility_margin", -0.05),
    ("jobs", 0), ("jobs", -3),
])
def test_bad_search_settings_rejected(tmp_path, monkeypatch, field, value):
    with pytest.raises(DomainError, match=field):
        Config(**{field: value})
    path = tmp_path / "bad.cfg"
    path.write_text(f"{field} = {value}\n")
    monkeypatch.setenv(ENV_VAR, str(path))
    with pytest.raises(ValueError, match=field):
        load_config()


def test_search_settings_at_their_limits_accepted():
    cfg = Config(tol_beta=1e-5, feasibility_margin=0.0)
    assert (cfg.tol_beta, cfg.feasibility_margin) == (1e-5, 0.0)
