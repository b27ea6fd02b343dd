"""Tests for the block-Jacobi baseline preconditioner."""

import numpy as np
import pytest

from repro.apps import LaplaceVolumeProblem
from repro.baselines import BlockJacobiPreconditioner
from repro.core import SRSOptions, srs_factor
from repro.geometry import uniform_grid
from repro.iterative import cg
from repro.kernels import GaussianKernelMatrix, LaplaceKernelMatrix
from repro.tree import QuadTree


def test_exact_on_block_diagonal_kernel(rng):
    """For a kernel with negligible cross-box coupling, M^{-1} ~ A^{-1}."""
    m = 16
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.005, shift=1.0)
    pre = BlockJacobiPreconditioner(k, leaf_size=16)
    from repro.kernels import dense_matrix

    a = dense_matrix(k)
    b = rng.standard_normal(k.n)
    x = pre.solve(b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-4


def test_reduces_cg_iterations_vs_plain():
    prob = LaplaceVolumeProblem(32)
    pre = BlockJacobiPreconditioner(prob.kernel, leaf_size=64)
    b = prob.random_rhs()
    plain = cg(prob.matvec, b, tol=1e-10, maxiter=5000)
    jac = cg(prob.matvec, b, preconditioner=pre.solve, tol=1e-10, maxiter=5000)
    assert jac.converged
    assert jac.iterations < plain.iterations


def test_weaker_than_srs_preconditioner():
    """RS-S converges in O(1) iterations; block-Jacobi needs far more."""
    prob = LaplaceVolumeProblem(32)
    fact = srs_factor(prob.kernel, opts=SRSOptions(tol=1e-6, leaf_size=64))
    pre = BlockJacobiPreconditioner(prob.kernel, leaf_size=64)
    b = prob.random_rhs()
    srs = cg(prob.matvec, b, preconditioner=fact.solve, tol=1e-10, maxiter=5000)
    jac = cg(prob.matvec, b, preconditioner=pre.solve, tol=1e-10, maxiter=5000)
    assert srs.iterations * 3 < jac.iterations


def test_jacobi_iterations_grow_with_n():
    """Unlike RS-S (constant nit), block-Jacobi degrades with N."""
    its = []
    for m in (16, 32):
        prob = LaplaceVolumeProblem(m)
        pre = BlockJacobiPreconditioner(prob.kernel, leaf_size=64)
        res = cg(prob.matvec, prob.random_rhs(), preconditioner=pre.solve, tol=1e-8, maxiter=5000)
        its.append(res.iterations)
    assert its[1] > its[0]


def test_multi_rhs(rng):
    m = 16
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    pre = BlockJacobiPreconditioner(k, leaf_size=32)
    bs = rng.standard_normal((k.n, 3))
    xs = pre.solve(bs)
    assert xs.shape == bs.shape
    for j in range(3):
        assert np.allclose(xs[:, j], pre.solve(bs[:, j]))


def test_validation():
    k = LaplaceKernelMatrix(uniform_grid(8), 1.0 / 8)
    wrong = QuadTree(uniform_grid(4), 2)
    with pytest.raises(ValueError):
        BlockJacobiPreconditioner(k, tree=wrong)
    pre = BlockJacobiPreconditioner(k, leaf_size=16)
    with pytest.raises(ValueError):
        pre.solve(np.zeros(3))
    assert pre.memory_bytes() > 0
