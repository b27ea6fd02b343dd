"""Tests for the interaction store (active sets + modified blocks)."""

import numpy as np
import pytest
from conftest import Lopsided
from hypothesis import assume, given, settings, strategies as st

from repro.core import SRSOptions, srs_factor
from repro.core.batch import compress_phase
from repro.core.factorization import sweep_level
from repro.core.interactions import InteractionStore
from repro.core.skel import eliminate_box
from repro.geometry import uniform_grid
from repro.kernels import (
    GaussianKernelMatrix,
    HelmholtzKernelMatrix,
    LaplaceKernelMatrix,
    dense_matrix,
)
from repro.kernels.helmholtz import gaussian_bump
from repro.tree import QuadTree


@pytest.fixture
def setup():
    pts = uniform_grid(8)
    kernel = GaussianKernelMatrix(pts, 1.0 / 8, sigma=0.1)
    tree = QuadTree(pts, 2)
    active = {c: tree.leaf_points(*c) for c in tree.nonempty_leaves()}
    return kernel, tree, active


def test_get_falls_back_to_kernel(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    b0, b1 = (0, 0), (1, 1)
    blk = store.get(b0, b1)
    assert np.allclose(blk, kernel.block(active[b0], active[b1]))
    assert not store.is_modified(b0, b1)


def test_get_writable_materializes_and_persists(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    b0, b1 = (0, 0), (0, 1)
    blk = store.get_writable(b0, b1)
    blk -= 1.0
    assert store.is_modified(b0, b1)
    assert np.allclose(store.get(b0, b1), kernel.block(active[b0], active[b1]) - 1.0)


def test_locality_guard(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    with pytest.raises(RuntimeError, match="locality"):
        store.get_writable((0, 0), (3, 3))
    # distance-2 is allowed
    store.get_writable((0, 0), (2, 2))


def test_restrict_shrinks_all_touching_blocks(setup):
    kernel, tree, active = setup
    helmholtz = HelmholtzKernelMatrix(
        kernel.points, 1.0 / 8, 5.0, b=gaussian_bump(kernel.points)
    )
    lopsided = Lopsided(kernel.points, 1.0 / 8, sigma=0.1)
    # symmetric: one array per partner; general: both orientations
    for k, stored_per_partner in ((kernel, 1), (helmholtz, 1), (lopsided, 2)):
        store = InteractionStore(k, active)
        b0, b1, b2 = (0, 0), (0, 1), (1, 0)
        store.get_writable(b0, b1)
        store.get_writable(b1, b0)
        store.get_writable(b2, b0)
        store.get_writable(b0, b0)
        assert len(store.blocks) == 1 + stored_per_partner + 1
        n0 = store.nactive(b0)
        keep = np.array([0, 2])
        store.restrict(b0, keep)
        assert store.nactive(b0) == 2
        for other in (b1, b2):
            assert store.get(b0, other).shape == (2, store.nactive(other))
            assert store.get(other, b0).shape == (store.nactive(other), 2)
        assert store.get(b0, b0).shape == (2, 2)
        assert all(blk.flags.c_contiguous for blk in store.blocks.values())
        assert n0 > 2


def test_restrict_keeps_values(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    b0, b1 = (0, 0), (0, 1)
    before = store.get_writable(b0, b1).copy()
    keep = np.array([1, 3])
    store.restrict(b0, keep)
    assert np.allclose(store.get(b0, b1), before[keep, :])


def test_set_shape_validation(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    with pytest.raises(ValueError):
        store.set((0, 0), (0, 1), np.zeros((1, 1)))


def test_seed_blocks_registered(setup):
    kernel, tree, active = setup
    val = np.ones((active[(0, 0)].size, active[(1, 0)].size))
    store = InteractionStore(kernel, active, blocks={((0, 0), (1, 0)): val})
    assert store.is_modified((0, 0), (1, 0))
    assert np.allclose(store.get((0, 0), (1, 0)), 1.0)


def test_store_predicate_discards_updates(setup):
    kernel, tree, active = setup
    store = InteractionStore(
        kernel, active, store_predicate=lambda bi, bj: bi == (0, 0) or bj == (0, 0)
    )
    boxes = [(0, 0), (1, 0), (1, 1)]
    n = sum(store.nactive(b) for b in boxes)
    log = []
    store.subtract_schur(boxes, np.full((n, n), 5.0), log)
    assert not store.is_modified((1, 1), (1, 0))  # not held
    assert not store.is_modified((1, 0), (1, 0))
    assert store.is_modified((0, 0), (1, 0))
    assert np.allclose(
        store.get((1, 0), (0, 0)), kernel.block(active[(1, 0)], active[(0, 0)]) - 5.0
    )
    # the discarded updates still reach the log, for the holding ranks
    assert {(op[1], op[2]) for op in log} == {
        store.stored_key(bi, bj) for bi in boxes for bj in boxes
    }


def test_memory_accounting(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    assert store.memory_bytes() == 0
    store.get_writable((0, 0), (0, 1))
    assert store.memory_bytes() > 0


# ----------------------------------------------------------------------
# orientation: a symmetric store keeps one block per unordered pair
# ----------------------------------------------------------------------
def _kernel(name, m):
    pts = uniform_grid(m)
    if name == "laplace":
        return LaplaceKernelMatrix(pts, 1.0 / m)
    if name == "gaussian":
        return GaussianKernelMatrix(pts, 1.0 / m, sigma=0.05, shift=1.0)
    if name == "lopsided":
        return Lopsided(pts, 1.0 / m, sigma=0.05, shift=1.0)
    return HelmholtzKernelMatrix(pts, 1.0 / m, 6.0, b=gaussian_bump(pts))


def _swept_level(kernel, nlevels, mode, **store_kw):
    """A leaf-level store after one :func:`sweep_level`, and its records."""
    tree = QuadTree(kernel.points, nlevels)
    store = InteractionStore(
        kernel, {c: tree.leaf_points(*c) for c in tree.nonempty_leaves()}, **store_kw
    )
    records = []
    opts = SRSOptions(tol=1e-8, leaf_size=16, factor_mode=mode)
    sweep_level(store, kernel, tree, nlevels, tree.boxes(nlevels), opts, records)
    return store, records


@pytest.mark.parametrize("mode", ["strict", "batched"])
@pytest.mark.parametrize("name", ["laplace", "gaussian", "helmholtz"])
def test_hermitian_store_keeps_one_block_per_unordered_pair(name, mode):
    store, _ = _swept_level(_kernel(name, 32), 3, mode)
    assert store.blocks
    assert all(bi <= bj for bi, bj in store.blocks)
    off_diagonal = [(bi, bj) for bi, bj in store.blocks if bi != bj]
    assert off_diagonal
    for bi, bj in off_diagonal:
        assert store.is_modified(bj, bi)
        assert np.shares_memory(store.get(bj, bi), store.get(bi, bj))
        assert np.array_equal(store.get(bj, bi), store.get(bi, bj).T)
        fwd, rev = store.get_pair(bj, bi)
        assert rev is store.blocks[bi, bj] and np.shares_memory(fwd, rev)


@pytest.mark.parametrize("mode", ["strict", "batched"])
def test_complex_symmetric_schur_deltas_are_transpose_symmetric(mode, monkeypatch):
    # what keeping one block per pair of a Helmholtz store rests on,
    # measured: with a real T the sparsified X = X^T, so every delta
    # X[C, R] X_RR^{-1} X[R, C] of the factor is its own transpose
    deltas = []
    subtract = InteractionStore.subtract_schur

    def spy(self, boxes, delta, update_log=None):
        deltas.append(delta.copy())
        return subtract(self, boxes, delta, update_log)

    monkeypatch.setattr(InteractionStore, "subtract_schur", spy)
    srs_factor(_kernel("helmholtz", 24), opts=SRSOptions(leaf_size=16, factor_mode=mode))
    assert len(deltas) > 40 and all(np.iscomplexobj(d) for d in deltas)
    for d in deltas:
        assert np.linalg.norm(d - d.T) <= 1e-12 * np.linalg.norm(d)


@pytest.mark.parametrize("mode", ["strict", "batched"])
def test_general_store_keeps_both_orientations(mode):
    store, _ = _swept_level(_kernel("lopsided", 32), 3, mode)
    assert any(bi > bj for bi, bj in store.blocks)
    for bi, bj in store.blocks:
        assert (bj, bi) in store.blocks
        if bi != bj:
            assert not np.shares_memory(store.blocks[bi, bj], store.blocks[bj, bi])


@pytest.mark.parametrize("name", ["laplace", "helmholtz"])
def test_rejected_pairs_are_neither_stored_nor_evaluated(name, monkeypatch):
    kernel = _kernel(name, 16)
    evaluated = []
    block = kernel.block

    def recording(rows, cols):
        evaluated.append((rows[0], cols[0]))
        return block(rows, cols)

    monkeypatch.setattr(kernel, "block", recording)
    tree = QuadTree(kernel.points, 2)
    active = {c: tree.leaf_points(*c) for c in tree.nonempty_leaves()}
    held = lambda bi, bj: (0, 0) in (bi, bj)  # noqa: E731
    store = InteractionStore(kernel, active, store_predicate=held)
    boxes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    n = sum(store.nactive(b) for b in boxes)
    log = []
    store.subtract_schur(boxes, np.ones((n, n), dtype=kernel.dtype), log)
    assert all(held(bi, bj) for bi, bj in store.blocks)
    assert {(op[1], op[2]) for op in log} >= {((0, 1), (1, 0)), ((1, 1), (1, 1))}
    assert len(evaluated) == len(store.blocks)
    first = {b: active[b][0] for b in boxes}
    assert {(first[bi], first[bj]) for bi, bj in store.blocks} == set(evaluated)


def _dense_reference(kernel, records):
    """The dense operator after ``records``' sparsifications and Schur
    updates of their clusters, from the dense matrix up."""
    d = dense_matrix(kernel)
    for rec in records:
        r, s, c, t = rec.redundant, rec.skeleton, rec.cluster, rec.T
        t_h = t.conj().T
        x_cr = d[np.ix_(c, r)] - d[np.ix_(c, s)] @ t
        x_rc = d[np.ix_(r, c)] - t_h @ d[np.ix_(s, c)]
        x_rr = (
            d[np.ix_(r, r)] - t_h @ d[np.ix_(s, r)] - d[np.ix_(r, s)] @ t
            + t_h @ d[np.ix_(s, s)] @ t
        )
        d[np.ix_(c, c)] -= x_cr @ np.linalg.solve(x_rr, x_rc)
    return d


@pytest.mark.parametrize("mode", ["strict", "batched"])
@pytest.mark.parametrize("name", ["laplace", "gaussian", "helmholtz"])
def test_updated_store_is_the_dense_schur_complement(name, mode):
    kernel = _kernel(name, 16)  # 4x4 leaves, 16 points each
    store, records = _swept_level(kernel, 2, mode)
    assert any(rec.redundant.size and rec.skeleton.size for rec in records)
    d = _dense_reference(kernel, records)
    live = [b for b in store.active if store.nactive(b)]
    got = np.block([[store.get(bi, bj) for bj in live] for bi in live])
    idx = np.concatenate([store.active_of(b) for b in live])
    ref = d[np.ix_(idx, idx)]
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


# ----------------------------------------------------------------------
# independence: skeletonizations at Chebyshev distance >= 3 commute
# ----------------------------------------------------------------------
# The batched sweep's colour phases and the distributed rank-colour loop
# both factor boxes >= 3 apart "at once". That is only the sequential
# algorithm if order does not matter between them: eliminating one may
# not touch anything the other's compression or elimination reads.
def _skeletonize_in_order(kernel, tree, level, order):
    opts = SRSOptions(tol=1e-4, leaf_size=16)
    store = InteractionStore(
        kernel,
        {c: tree.leaf_points(*c) for c in tree.nonempty_leaves()},
    )
    records = {}
    for box in order:  # the strict sweep: one-box groups
        dec = compress_phase(store, kernel, tree, level, [box], opts)[box]
        records[box] = eliminate_box(
            store, box, tree.neighbors(level, *box), dec, level=level
        )
    return store, records


def _record_arrays(rec):
    return (
        rec.cluster_segments,
        *(
            (arr.shape, arr.tobytes())
            for arr in (rec.redundant, rec.skeleton, rec.cluster, rec.T,
                        rec.e_cr, rec.g_rc, rec.lu._lu, rec.lu._piv)
        ),
    )


_leaf_coord = st.tuples(st.integers(0, 7), st.integers(0, 7))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), a=_leaf_coord, b=_leaf_coord)
def test_far_skeletonizations_commute_bitwise(seed, a, b):
    assume(max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 3)
    pts = np.random.default_rng(seed).random((1200, 2))
    tree = QuadTree(pts, 3)  # 8x8 leaves, ~19 points each
    kernel = LaplaceKernelMatrix(pts, 1.0 / 35)
    store_ab, rec_ab = _skeletonize_in_order(kernel, tree, 3, [a, b])
    store_ba, rec_ba = _skeletonize_in_order(kernel, tree, 3, [b, a])
    # both boxes really eliminate something, so both orders really
    # write Schur updates into the store
    assume(all(rec is not None and rec.redundant.size for rec in rec_ab.values()))
    for box in (a, b):
        assert _record_arrays(rec_ab[box]) == _record_arrays(rec_ba[box])
    assert store_ab.active.keys() == store_ba.active.keys()
    for box, idx in store_ab.active.items():
        assert np.array_equal(idx, store_ba.active[box])
    assert store_ab.blocks.keys() == store_ba.blocks.keys()
    for key, blk in store_ab.blocks.items():
        assert blk.shape == store_ba.blocks[key].shape
        assert blk.tobytes() == store_ba.blocks[key].tobytes()


def test_distance_two_skeletonizations_do_not_commute():
    # the counter-example that keeps the property above from being
    # vacuous: at distance 2 each box sits in the other's M ring, so the
    # second one compresses against the first one's *skeleton* rows only
    pts = uniform_grid(32)
    tree = QuadTree(pts, 3)  # 8x8 leaves, 16 points each
    kernel = LaplaceKernelMatrix(pts, 1.0 / 32)
    a, b = (2, 2), (4, 2)
    _, rec_ab = _skeletonize_in_order(kernel, tree, 3, [a, b])
    _, rec_ba = _skeletonize_in_order(kernel, tree, 3, [b, a])
    assert _record_arrays(rec_ab[b]) != _record_arrays(rec_ba[b])
    assert _record_arrays(rec_ab[a]) != _record_arrays(rec_ba[a])
