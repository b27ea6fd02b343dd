"""Tests for the interaction store (active sets + modified blocks)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import SRSOptions
from repro.core.batch import compress_phase
from repro.core.interactions import InteractionStore
from repro.core.skel import eliminate_box
from repro.geometry import uniform_grid
from repro.kernels import GaussianKernelMatrix, LaplaceKernelMatrix
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
    store = InteractionStore(kernel, active, max_modified_distance=2)
    with pytest.raises(RuntimeError, match="locality"):
        store.get_writable((0, 0), (3, 3))
    # distance-2 is allowed
    store.get_writable((0, 0), (2, 2))


def test_restrict_shrinks_all_touching_blocks(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    b0, b1 = (0, 0), (0, 1)
    store.get_writable(b0, b1)
    store.get_writable(b1, b0)
    store.get_writable(b0, b0)
    n0 = store.nactive(b0)
    keep = np.array([0, 2])
    store.restrict(b0, keep)
    assert store.nactive(b0) == 2
    assert store.get(b0, b1).shape[0] == 2
    assert store.get(b1, b0).shape[1] == 2
    assert store.get(b0, b0).shape == (2, 2)
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
    blk = store.get_writable((1, 1), (1, 0))  # not held
    blk -= 5.0
    assert not store.is_modified((1, 1), (1, 0))
    held = store.get_writable((0, 0), (1, 0))
    held -= 5.0
    assert store.is_modified((0, 0), (1, 0))


def test_drop_box(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    store.get_writable((0, 0), (0, 1))
    store.drop_box((0, 0))
    assert (0, 0) not in store.active
    assert not store.is_modified((0, 0), (0, 1))


def test_memory_accounting(setup):
    kernel, tree, active = setup
    store = InteractionStore(kernel, active)
    assert store.memory_bytes() == 0
    store.get_writable((0, 0), (0, 1))
    assert store.memory_bytes() > 0


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
        max_modified_distance=None,
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
