"""Integration tests for the sequential RS-S factorization."""

import numpy as np
import pytest

from repro.core import SRSOptions, srs_factor
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
from repro.tree import QuadTree


def relres(a, x, b):
    return np.linalg.norm(a @ x - b) / np.linalg.norm(b)


def test_gaussian_machine_precision(gaussian16, gaussian16_dense, rng, srs_opts):
    fact = srs_factor(gaussian16, opts=srs_opts(tol=1e-12, leaf_size=16))
    b = rng.standard_normal(gaussian16.n)
    assert relres(gaussian16_dense, fact.solve(b), b) < 1e-12


def test_eliminates_every_index(gaussian16, srs_opts):
    fact = srs_factor(gaussian16, opts=srs_opts(tol=1e-8, leaf_size=16))
    assert fact.eliminated_count() == gaussian16.n


def test_laplace_tolerance_scaling(laplace32, laplace32_dense, rng, srs_opts):
    b = rng.standard_normal(laplace32.n)
    res = {}
    for tol in (1e-3, 1e-6, 1e-9):
        fact = srs_factor(laplace32, opts=srs_opts(tol=tol, leaf_size=32))
        res[tol] = relres(laplace32_dense, fact.solve(b), b)
    assert res[1e-6] < res[1e-3] / 10
    assert res[1e-9] < res[1e-6] / 10


def test_helmholtz_accuracy(helmholtz24, helmholtz24_dense, rng, srs_opts):
    fact = srs_factor(helmholtz24, opts=srs_opts(tol=1e-8, leaf_size=24))
    b = rng.standard_normal(helmholtz24.n) + 1j * rng.standard_normal(helmholtz24.n)
    assert relres(helmholtz24_dense, fact.solve(b), b) < 1e-6


def test_yukawa_accuracy(rng, srs_opts):
    m = 16
    k = YukawaKernelMatrix(uniform_grid(m), 1.0 / m, 3.0)
    fact = srs_factor(k, opts=srs_opts(tol=1e-9, leaf_size=16))
    b = rng.standard_normal(k.n)
    assert relres(dense_matrix(k), fact.solve(b), b) < 1e-7


def test_multiple_rhs_matches_single(laplace32, laplace32_fact, rng):
    bs = rng.standard_normal((laplace32.n, 4))
    xs = laplace32_fact.solve(bs)
    assert xs.shape == bs.shape
    for j in range(4):
        assert np.allclose(xs[:, j], laplace32_fact.solve(bs[:, j]))


def test_solve_rejects_wrong_size(laplace32_fact):
    with pytest.raises(ValueError):
        laplace32_fact.solve(np.zeros(7))


def test_leaf_size_independence(laplace32, laplace32_dense, rng, srs_opts):
    b = rng.standard_normal(laplace32.n)
    for leaf in (16, 64):
        fact = srs_factor(laplace32, opts=srs_opts(tol=1e-9, leaf_size=leaf))
        assert relres(laplace32_dense, fact.solve(b), b) < 1e-5


def test_explicit_tree_argument(laplace32, rng, srs_opts):
    tree = QuadTree(laplace32.points, 3)
    fact = srs_factor(laplace32, tree=tree, opts=srs_opts(tol=1e-9))
    assert fact.eliminated_count() == laplace32.n


def test_tree_kernel_mismatch_rejected(laplace32):
    tree = QuadTree(uniform_grid(8), 2)
    with pytest.raises(ValueError):
        srs_factor(laplace32, tree=tree)


def test_locality_guard_holds_on_a_clean_run(gaussian16, srs_opts):
    """Every store raises on a far-field block (``test_locality_guard``),
    and a whole factorization runs under that guard (Remark 2 holds)."""
    fact = srs_factor(gaussian16, opts=srs_opts(tol=1e-8, leaf_size=16))
    assert fact.eliminated_count() == gaussian16.n


def test_rank_stats_recorded(laplace32_fact):
    stats = laplace32_fact.stats
    assert stats.levels()  # nonempty
    leaf_level = max(stats.levels())
    assert stats.average_rank(leaf_level) > 0
    table = stats.table()
    assert all(len(row) == 4 for row in table)


def test_memory_is_linearish(srs_opts):
    """Memory per point roughly flat across N (O(N) footprint)."""
    per_point = []
    for m in (16, 32):
        k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
        fact = srs_factor(k, opts=srs_opts(tol=1e-6, leaf_size=32))
        per_point.append(fact.memory_bytes() / k.n)
    assert per_point[1] < per_point[0] * 2.5


def test_solve_is_deterministic(laplace32_fact, rng):
    b = rng.standard_normal(laplace32_fact.n)
    assert np.array_equal(laplace32_fact.solve(b), laplace32_fact.solve(b))


def test_identity_like_kernel_solves_exactly(rng, srs_opts):
    """Strongly diagonally dominant kernel: solution ~ b / diag."""
    m = 16
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.01, shift=100.0)
    fact = srs_factor(k, opts=srs_opts(tol=1e-12, leaf_size=16))
    b = rng.standard_normal(k.n)
    x = fact.solve(b)
    assert relres(dense_matrix(k), x, b) < 1e-13


class TestBatched:
    """Every check of this module again, with each factorization built
    by the level-batched sweep instead of the strict one."""

    @pytest.fixture(scope="class")
    def factor_mode(self):
        return "batched"

    @pytest.fixture(scope="class")
    def laplace32_fact(self, laplace32):
        return srs_factor(
            laplace32, opts=SRSOptions(tol=1e-9, leaf_size=32, factor_mode="batched")
        )


for _name, _check in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestBatched, _name, staticmethod(_check))
