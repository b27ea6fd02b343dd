"""Shared fixtures: point sets, kernels, and (expensive) factorizations;
:class:`Lopsided`, the asymmetric test kernel; and :func:`shm_blocks`,
the ``/dev/shm`` listing of the "left as found" checks."""

from __future__ import annotations

import functools
import glob
import os
import tempfile

import numpy as np
import pytest

from repro.core import SRSOptions, srs_factor
from repro.geometry import uniform_grid
from repro.kernels import (
    GaussianKernelMatrix,
    HelmholtzKernelMatrix,
    LaplaceKernelMatrix,
    dense_matrix,
)
from repro.kernels.helmholtz import gaussian_bump
from repro.vmpi import process_backend


class Lopsided(GaussianKernelMatrix):
    """Deliberately asymmetric: the column weight grows with ``x``."""

    symmetric = False
    hermitian = False

    def col_weights(self, index):
        return self.h * self.h * (1.0 + self.points[index, 0])

    def spawn(self, points, data):
        return type(self)(points, self.h, sigma=self.sigma, shift=self.shift)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def factor_mode():
    """Sweep mode of the factorizations a test builds with ``srs_opts``;
    a module's ``TestBatched`` twin overrides it to ``"batched"``."""
    return "strict"


@pytest.fixture
def srs_opts(factor_mode):
    """``SRSOptions`` with the run's sweep mode filled in."""
    return functools.partial(SRSOptions, factor_mode=factor_mode)


@pytest.fixture(scope="session")
def grid16():
    return uniform_grid(16)


@pytest.fixture(scope="session")
def grid32():
    return uniform_grid(32)


@pytest.fixture(scope="session")
def laplace32():
    return LaplaceKernelMatrix(uniform_grid(32), 1.0 / 32)


@pytest.fixture(scope="session")
def laplace32_dense(laplace32):
    return dense_matrix(laplace32)


@pytest.fixture(scope="session")
def helmholtz24():
    pts = uniform_grid(24)
    return HelmholtzKernelMatrix(pts, 1.0 / 24, 8.0, b=gaussian_bump(pts))


@pytest.fixture(scope="session")
def helmholtz24_dense(helmholtz24):
    return dense_matrix(helmholtz24)


@pytest.fixture(scope="session")
def gaussian16():
    return GaussianKernelMatrix(uniform_grid(16), 1.0 / 16, sigma=0.05, shift=1.0)


@pytest.fixture(scope="session")
def gaussian16_dense(gaussian16):
    return dense_matrix(gaussian16)


@pytest.fixture(scope="session")
def laplace32_fact(laplace32):
    return srs_factor(laplace32, opts=SRSOptions(tol=1e-9, leaf_size=32))


# ----------------------------------------------------------------------
# /dev/shm segments this test process and its rank processes created
# ----------------------------------------------------------------------
_SHM_LOG = ""
_recorder = pytest.MonkeyPatch()


def _recording(create_shm):
    """``_create_shm`` that also appends the new segment's name to the
    session's log, from whichever process calls it: a rank process
    forked after :func:`pytest_configure` inherits the wrapper, and a
    line this short is appended whole."""
    log = _SHM_LOG

    def create(nbytes: int):
        shm = create_shm(nbytes)
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, f"{shm.name}\n".encode())
        finally:
            os.close(fd)
        return shm

    return create


def pytest_configure(config):
    # before any test runs, so before any rank pool is forked
    global _SHM_LOG
    fd, _SHM_LOG = tempfile.mkstemp(prefix="repro-shm-", suffix=".log")
    os.close(fd)
    _recorder.setattr(process_backend, "_create_shm", _recording(process_backend._create_shm))


def pytest_unconfigure(config):
    _recorder.undo()
    os.unlink(_SHM_LOG)


def shm_blocks(*, machine_wide: bool = False) -> set[str]:
    """Names of the ``psm_*`` segments in ``/dev/shm`` that this test
    process or one of its rank processes created, so a check that
    ``/dev/shm`` is left as found ignores what other programs on the
    machine (a server, a second test run) make meanwhile.

    Every segment is made by ``process_backend._create_shm`` (a rule of
    ``tests/test_invariants.py``), which :func:`pytest_configure`
    wraps. A process that does not inherit the wrapper cannot be told
    apart from a stranger: ranks started by spawn, or a program a test
    starts by exec. A test whose segments come from one passes
    ``machine_wide=True`` and gets the whole machine's listing, which
    is also the answer whenever the backend's default start method is
    not fork.
    """
    listing = {os.path.basename(path) for path in glob.glob("/dev/shm/psm_*")}
    if machine_wide or process_backend._pick_start_method() != "fork":
        return listing
    with open(_SHM_LOG) as log:
        return listing & set(log.read().split())
