"""Shared utilities: configuration and small helpers."""

from repro.util.config import bench_scale, env_flag, env_int

__all__ = ["bench_scale", "env_flag", "env_int"]
