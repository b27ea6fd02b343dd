"""Tests for environment configuration."""

import pytest

from repro.util import bench_scale, env_flag, env_int


def test_env_int(monkeypatch):
    monkeypatch.delenv("X_TEST_INT", raising=False)
    assert env_int("X_TEST_INT", 7) == 7
    monkeypatch.setenv("X_TEST_INT", "42")
    assert env_int("X_TEST_INT", 7) == 42
    monkeypatch.setenv("X_TEST_INT", "nope")
    with pytest.raises(ValueError):
        env_int("X_TEST_INT", 7)


def test_env_flag(monkeypatch):
    monkeypatch.delenv("X_TEST_FLAG", raising=False)
    assert env_flag("X_TEST_FLAG") is False
    for truthy in ("1", "true", "YES", "on"):
        monkeypatch.setenv("X_TEST_FLAG", truthy)
        assert env_flag("X_TEST_FLAG") is True
    monkeypatch.setenv("X_TEST_FLAG", "0")
    assert env_flag("X_TEST_FLAG") is False


def test_bench_scale_validation(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
    assert bench_scale() == 1
    monkeypatch.setenv("REPRO_BENCH_SCALE", "9")
    with pytest.raises(ValueError):
        bench_scale()


def test_vmpi_backend_config(monkeypatch):
    from repro.util.config import vmpi_backend

    monkeypatch.delenv("REPRO_VMPI_BACKEND", raising=False)
    assert vmpi_backend() == "thread"
    monkeypatch.setenv("REPRO_VMPI_BACKEND", "Process")
    assert vmpi_backend() == "process"
    monkeypatch.setenv("REPRO_VMPI_BACKEND", "")
    assert vmpi_backend() == "thread"
    monkeypatch.setenv("REPRO_VMPI_BACKEND", "julia")
    with pytest.raises(ValueError):
        vmpi_backend()


def test_obs_config(monkeypatch):
    from repro.util.config import obs_dir, obs_enabled

    monkeypatch.delenv("REPRO_OBS", raising=False)
    assert obs_enabled() is False
    monkeypatch.setenv("REPRO_OBS", "on")
    assert obs_enabled() is True
    monkeypatch.setenv("REPRO_OBS", "off")
    assert obs_enabled() is False

    monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
    assert obs_dir() is None
    monkeypatch.setenv("REPRO_OBS_DIR", "  ")
    assert obs_dir() is None
    monkeypatch.setenv("REPRO_OBS_DIR", "/tmp/obs")
    assert obs_dir() == "/tmp/obs"


def test_vmpi_start_method_config(monkeypatch):
    from repro.util.config import vmpi_start_method

    monkeypatch.delenv("REPRO_VMPI_START_METHOD", raising=False)
    assert vmpi_start_method() is None
    monkeypatch.setenv("REPRO_VMPI_START_METHOD", "Spawn")
    assert vmpi_start_method() == "spawn"
    monkeypatch.setenv("REPRO_VMPI_START_METHOD", "")
    assert vmpi_start_method() is None
    monkeypatch.setenv("REPRO_VMPI_START_METHOD", "teleport")
    with pytest.raises(ValueError):
        vmpi_start_method()
