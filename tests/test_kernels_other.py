"""Tests for the Yukawa and Gaussian kernels."""

import numpy as np
import pytest
from scipy.special import k0

from repro.geometry import uniform_grid
from repro.kernels import (
    GaussianKernelMatrix,
    YukawaKernelMatrix,
    dense_matrix,
)


def test_yukawa_offdiagonal():
    m, lam = 8, 3.0
    pts = uniform_grid(m)
    h = 1.0 / m
    k = YukawaKernelMatrix(pts, h, lam)
    blk = k.block(np.array([0]), np.array([5]))
    r = np.linalg.norm(pts[0] - pts[5])
    assert blk[0, 0] == pytest.approx(h * h * k0(lam * r) / (2 * np.pi))


def test_yukawa_cell_integral_against_scipy():
    from scipy import integrate

    lam, h = 2.0, 0.2
    k = YukawaKernelMatrix(uniform_grid(5, domain=None), h, lam)
    ref, _ = integrate.dblquad(
        lambda y, x: k0(lam * np.hypot(x, y)) / (2 * np.pi),
        0.0,
        h / 2,
        lambda x: 0.0,
        lambda x: h / 2,
    )
    assert k.diagonal()[0] - k.identity_shift == pytest.approx(4 * ref, rel=1e-8)


def test_yukawa_spd():
    m = 8
    k = YukawaKernelMatrix(uniform_grid(m), 1.0 / m, 5.0)
    a = dense_matrix(k)
    w = np.linalg.eigvalsh(a)
    assert w.min() > 0


def test_gaussian_matrix_entries():
    m = 8
    pts = uniform_grid(m)
    k = GaussianKernelMatrix(pts, 1.0 / m, sigma=0.1, shift=2.0)
    a = dense_matrix(k)
    r2 = np.sum((pts[0] - pts[3]) ** 2)
    assert a[0, 3] == pytest.approx((1.0 / m) ** 2 * np.exp(-r2 / 0.02))
    assert a[0, 0] == pytest.approx(2.0 + (1.0 / m) ** 2)


def test_gaussian_well_conditioned():
    m = 8
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.05, shift=1.0)
    assert np.linalg.cond(dense_matrix(k)) < 10


def test_gaussian_spawn():
    m = 8
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.07, shift=1.5)
    sub = np.array([0, 10, 20])
    sp = k.spawn(k.points[sub], {})
    assert np.allclose(sp.block(np.arange(3), np.arange(3)), k.block(sub, sub))
