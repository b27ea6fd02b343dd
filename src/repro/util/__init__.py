"""Shared utilities: configuration and small helpers."""

import contextlib
import os
import tempfile

from repro.util.config import bench_scale, env_flag, env_int

__all__ = ["bench_scale", "env_flag", "env_int", "write_atomic"]


@contextlib.contextmanager
def write_atomic(path: str):
    """A binary file that replaces ``path`` when the block exits cleanly.

    Each call writes its own ``mkstemp`` file next to ``path``, so two
    writers of one path (threads of one process included) never share
    a temp file; the last to finish wins whole. On any failure the temp
    file is removed and ``path`` is left as it was.
    """
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
