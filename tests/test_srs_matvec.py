"""Forward application of the compressed operator and dtype promotion."""

import numpy as np
import pytest

from repro.core import SRSOptions, srs_factor
from repro.geometry import uniform_grid
from repro.kernels import (
    HelmholtzKernelMatrix,
    LaplaceKernelMatrix,
    dense_matrix,
)
from repro.kernels.helmholtz import gaussian_bump


def relerr(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def laplace_setup():
    kernel = LaplaceKernelMatrix(uniform_grid(24), 1.0 / 24)
    fact = srs_factor(kernel, opts=SRSOptions(tol=1e-10, leaf_size=32))
    return kernel, fact, dense_matrix(kernel)


def test_forward_matvec_matches_dense(laplace_setup):
    _, fact, dense = laplace_setup
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dense.shape[0])
    assert relerr(fact.matvec(x), dense @ x) < 1e-7


def test_forward_matvec_blocked(laplace_setup):
    _, fact, dense = laplace_setup
    rng = np.random.default_rng(1)
    xb = rng.standard_normal((dense.shape[0], 4))
    out = fact.matvec(xb)
    assert out.shape == xb.shape
    assert relerr(out, dense @ xb) < 1e-7


def test_forward_matvec_roundtrip(laplace_setup):
    """solve(matvec(x)) == x to machine precision: the sweeps invert exactly,
    also on a complex operand of the real factorization (its real view)."""
    _, fact, _ = laplace_setup
    rng = np.random.default_rng(2)
    x = rng.standard_normal(fact.n)
    assert relerr(fact.solve(fact.matvec(x)), x) < 1e-12
    assert relerr(fact.matvec(fact.solve(x)), x) < 1e-12
    z = x + 1j * rng.standard_normal(fact.n)
    assert relerr(fact.solve(fact.matvec(z)), z) < 1e-12
    assert relerr(fact.matvec(fact.solve(z)), z) < 1e-12


def test_complex_rhs_on_real_factorization(laplace_setup):
    """Complex RHS through a real-dtype factorization: the imaginary part
    must survive both solve and matvec (dtype promotion regression)."""
    _, fact, dense = laplace_setup
    rng = np.random.default_rng(3)
    b = rng.standard_normal(fact.n) + 1j * rng.standard_normal(fact.n)
    x = fact.solve(b)
    assert np.iscomplexobj(x)
    assert np.linalg.norm(x.imag) > 0
    assert relerr(dense @ x, b) < 1e-7
    y = fact.matvec(b)
    assert np.iscomplexobj(y)
    assert relerr(y, dense @ b) < 1e-7


def test_forward_matvec_complex_kernel():
    pts = uniform_grid(20)
    kernel = HelmholtzKernelMatrix(pts, 1.0 / 20, 6.0, b=gaussian_bump(pts))
    fact = srs_factor(kernel, opts=SRSOptions(tol=1e-10, leaf_size=32))
    dense = dense_matrix(kernel)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(fact.n) + 1j * rng.standard_normal(fact.n)
    assert relerr(fact.matvec(x), dense @ x) < 1e-7
    assert relerr(fact.solve(fact.matvec(x)), x) < 1e-12
    assert relerr(fact.matvec(fact.solve(x)), x) < 1e-12


def test_forward_matvec_shape_validation(laplace_setup):
    _, fact, _ = laplace_setup
    with pytest.raises(ValueError):
        fact.matvec(np.zeros(3))
