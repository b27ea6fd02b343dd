"""Integration tests for the distributed factorization (Sec. III)."""

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
from repro.parallel import parallel_srs_factor


def relres(a, x, b):
    return np.linalg.norm(a @ x - b) / np.linalg.norm(b)


@pytest.mark.parametrize("p", [1, 4, 16])
def test_gaussian_all_p_machine_precision(p, rng, srs_opts):
    m = 32
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.05, shift=1.0)
    a = dense_matrix(k)
    b = rng.standard_normal(k.n)
    fact = parallel_srs_factor(k, p, opts=srs_opts(tol=1e-10, leaf_size=16))
    assert relres(a, fact.solve(b), b) < 1e-10


@pytest.mark.parametrize("p", [1, 4])
def test_laplace_matches_sequential_quality(p, laplace32, laplace32_dense, rng, srs_opts):
    opts = srs_opts(tol=1e-9, leaf_size=32)
    seq = srs_factor(laplace32, opts=opts)
    par = parallel_srs_factor(laplace32, p, opts=opts)
    b = rng.standard_normal(laplace32.n)
    r_seq = relres(laplace32_dense, seq.solve(b), b)
    r_par = relres(laplace32_dense, par.solve(b), b)
    assert r_par < 10 * r_seq + 1e-12


def test_helmholtz_parallel(helmholtz24, helmholtz24_dense, rng, srs_opts):
    fact = parallel_srs_factor(helmholtz24, 4, opts=srs_opts(tol=1e-8, leaf_size=36))
    b = rng.standard_normal(helmholtz24.n) + 1j * rng.standard_normal(helmholtz24.n)
    assert relres(helmholtz24_dense, fact.solve(b), b) < 1e-6


def test_p1_identical_to_sequential(gaussian16, rng, srs_opts):
    opts = srs_opts(tol=1e-8, leaf_size=16)
    seq = srs_factor(gaussian16, opts=opts)
    par = parallel_srs_factor(gaussian16, 1, opts=opts)
    b = rng.standard_normal(gaussian16.n)
    assert np.allclose(seq.solve(b), par.solve(b), rtol=1e-13, atol=1e-15)


def test_eliminated_count(gaussian16, srs_opts):
    fact = parallel_srs_factor(gaussian16, 4, opts=srs_opts(tol=1e-8, leaf_size=16))
    assert fact.eliminated_count() == gaussian16.n


def test_invalid_p_rejected(gaussian16):
    with pytest.raises(ValueError):
        parallel_srs_factor(gaussian16, 3)
    with pytest.raises(ValueError):
        parallel_srs_factor(gaussian16, 8)


def test_p_too_large_for_tree(gaussian16, srs_opts):
    with pytest.raises(ValueError):
        parallel_srs_factor(gaussian16, 64, opts=srs_opts(leaf_size=16), nlevels=3)


def test_neighbor_only_communication(laplace32, srs_opts):
    """Every rank talks only to grid-adjacent ranks (+ rank 0 for setup
    and the reduction chain) — the paper's central claim."""
    p = 16
    fact = parallel_srs_factor(laplace32, p, opts=srs_opts(tol=1e-6, leaf_size=16))
    # reports exist for all ranks and message counts are modest:
    # O(log N + log p) per rank, far below all-to-all (p-1 per phase)
    run = fact.factor_run
    assert run.max_messages_per_rank() < 200


def test_stats_match_sequential_totals(laplace32, srs_opts):
    opts = srs_opts(tol=1e-6, leaf_size=32)
    seq = srs_factor(laplace32, opts=opts)
    par = parallel_srs_factor(laplace32, 4, opts=opts)
    for level in seq.stats.levels():
        assert len(par.stats.ranks[level]) == len(seq.stats.ranks[level])
        # total skeleton count should be close (different orders change
        # individual IDs slightly)
        s_seq = sum(seq.stats.ranks[level])
        s_par = sum(par.stats.ranks[level])
        assert abs(s_seq - s_par) <= max(5, 0.1 * s_seq)


@pytest.mark.parametrize("p", [None, 16])
def test_stats_are_a_fold_over_the_records(laplace32, p, srs_opts):
    """``fact.stats`` reads the records: per level, each box's skeleton
    rank and its size before compression (skeleton plus eliminated
    ids), in record order, rank by rank. The sizes at a level add up to
    the skeletons the level below kept, and the leaf sizes to ``n``."""
    opts = srs_opts(tol=1e-6, leaf_size=16)
    if p is None:
        fact = srs_factor(laplace32, opts=opts)
        records = fact.records
    else:
        fact = parallel_srs_factor(laplace32, p, opts=opts)
        records = [rec for w in fact.workers for rec in w.records]
    ranks: dict[int, list[int]] = {}
    sizes: dict[int, list[int]] = {}
    for rec in records:
        ranks.setdefault(rec.level, []).append(rec.rank)
        sizes.setdefault(rec.level, []).append(rec.rank + rec.redundant.size)
    stats = fact.stats
    assert stats.ranks == ranks and stats.box_sizes == sizes
    assert stats.table() == [
        (lvl, float(np.mean(ranks[lvl])), int(np.max(ranks[lvl])), float(np.mean(sizes[lvl])))
        for lvl in sorted(ranks)
    ]
    leaf = max(ranks)
    assert sum(sizes[leaf]) == laplace32.n
    for lvl in range(1, leaf):
        assert sum(sizes[lvl]) == sum(ranks[lvl + 1])


def test_timing_fields(gaussian16, srs_opts):
    fact = parallel_srs_factor(gaussian16, 4, opts=srs_opts(tol=1e-8, leaf_size=16))
    assert fact.t_fact > 0
    assert fact.t_fact_comp >= 0
    assert fact.t_fact_other >= 0
    assert fact.t_fact == pytest.approx(fact.t_fact_comp + fact.t_fact_other, rel=1e-6)


def test_deeper_tree_with_reduction_chain(rng, srs_opts):
    """p=16 on a 4-level tree exercises two 4-to-1 reductions."""
    m = 32
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.03, shift=1.0)
    a = dense_matrix(k)
    fact = parallel_srs_factor(k, 16, opts=srs_opts(tol=1e-10, leaf_size=8), nlevels=4)
    b = rng.standard_normal(k.n)
    assert relres(a, fact.solve(b), b) < 1e-9


def test_memory_accounting(gaussian16, srs_opts):
    fact = parallel_srs_factor(gaussian16, 4, opts=srs_opts(tol=1e-8, leaf_size=16))
    assert fact.memory_bytes() > 0


class TestBatched:
    """Every check of this module again, with each factorization built
    by the level-batched sweep instead of the strict one."""

    @pytest.fixture(scope="class")
    def factor_mode(self):
        return "batched"


for _name, _check in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestBatched, _name, staticmethod(_check))
