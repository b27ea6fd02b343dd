"""Tests: FFT block-Toeplitz matvec == dense reference, exactly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.laplace_volume import LaplaceVolumeProblem
from repro.geometry import uniform_grid
from repro.kernels import (
    GaussianKernelMatrix,
    HelmholtzKernelMatrix,
    LaplaceKernelMatrix,
    YukawaKernelMatrix,
    dense_matrix,
)
from repro.kernels.helmholtz import gaussian_bump
from repro.matvec import FFTMatVec


@pytest.mark.parametrize("m", [4, 8, 16])
def test_laplace_fft_equals_dense(m, rng):
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    a = dense_matrix(k)
    x = rng.standard_normal(m * m)
    fv = FFTMatVec(k, m)
    assert np.allclose(fv(x), a @ x, rtol=1e-12, atol=1e-12)


def test_helmholtz_fft_equals_dense(rng):
    m = 12
    pts = uniform_grid(m)
    k = HelmholtzKernelMatrix(pts, 1.0 / m, 9.0, b=gaussian_bump(pts))
    a = dense_matrix(k)
    x = rng.standard_normal(m * m) + 1j * rng.standard_normal(m * m)
    fv = FFTMatVec(k, m)
    assert np.allclose(fv(x), a @ x, rtol=1e-11, atol=1e-12)


def test_yukawa_fft_equals_dense(rng):
    m = 10
    k = YukawaKernelMatrix(uniform_grid(m), 1.0 / m, 4.0)
    a = dense_matrix(k)
    x = rng.standard_normal(m * m)
    assert np.allclose(FFTMatVec(k, m)(x), a @ x)


def test_multiple_rhs(rng):
    m = 8
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    a = dense_matrix(k)
    xs = rng.standard_normal((m * m, 5))
    out = FFTMatVec(k, m)(xs)
    assert out.shape == (m * m, 5)
    assert np.allclose(out, a @ xs)


def test_residual_norm(rng):
    """``ProblemBase.relres`` on the FFT operator is the paper's relres."""
    prob = LaplaceVolumeProblem(8)
    a = dense_matrix(prob.kernel)
    x = rng.standard_normal(prob.n)
    b = a @ x
    assert prob.relres(x, b) < 1e-12
    assert prob.relres(np.zeros_like(x), b) == pytest.approx(1.0)


def test_dimension_mismatch_rejected(rng):
    m = 8
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    fv = FFTMatVec(k, m)
    with pytest.raises(ValueError):
        fv(np.zeros(10))
    with pytest.raises(ValueError):
        FFTMatVec(k, m + 1)


def test_real_kernel_returns_real(rng):
    m = 6
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    out = FFTMatVec(k, m)(rng.standard_normal(m * m))
    assert out.dtype == np.float64


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=1000))
def test_fft_dense_agreement_property(m, seed):
    rng = np.random.default_rng(seed)
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.2)
    x = rng.standard_normal(m * m)
    assert np.allclose(FFTMatVec(k, m)(x), dense_matrix(k) @ x, rtol=1e-11, atol=1e-12)
