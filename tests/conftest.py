"""Shared fixtures: point sets, kernels, and (expensive) factorizations."""

from __future__ import annotations

import functools

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
