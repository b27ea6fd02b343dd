"""Unit tests for pieces of the distributed worker protocol."""

import numpy as np
import pytest

from repro.core.interactions import InteractionStore
from repro.geometry import uniform_grid
from repro.kernels import GaussianKernelMatrix, HelmholtzKernelMatrix
from repro.kernels.helmholtz import gaussian_bump
from repro.parallel.ownership import LevelLayout
from repro.parallel.worker import RankPoints, _apply_ops, _filter_ops
from repro.tree import QuadTree


@pytest.fixture
def layout():
    return LevelLayout(3, 4)  # 8x8 boxes, 2x2 ranks, regions 4x4


def test_filter_restricts_by_distance(layout):
    # box (3, 0) is on rank 0, distance 1 from rank 1's region (x >= 4)
    log = [("restrict", (3, 0), np.array([0, 1]))]
    rank1 = layout.owner((4, 0))
    kept = _filter_ops(log, rank1, layout)
    assert len(kept) == 1
    # box (0, 0) is distance 4 away -> filtered out
    log = [("restrict", (0, 0), np.array([0]))]
    assert _filter_ops(log, rank1, layout) == []


def test_filter_deltas_by_ownership(layout):
    rank1 = layout.owner((4, 0))
    d = np.zeros((2, 2))
    log = [
        ("delta", (3, 0), (4, 0), d),  # one side owned by rank1 -> kept
        ("delta", (3, 0), (3, 1), d),  # both on rank 0 -> dropped
    ]
    kept = _filter_ops(log, rank1, layout)
    assert len(kept) == 1
    assert kept[0][2] == (4, 0)


def test_apply_ops_replays_restrict_and_delta(layout):
    m = 16
    pts = uniform_grid(m)
    kernel = GaussianKernelMatrix(pts, 1.0 / m, sigma=0.1)
    tree = QuadTree(pts, 3)
    active = {c: tree.leaf_points(*c) for c in tree.nonempty_leaves()}
    store = InteractionStore(kernel, active)
    me = layout.owner((0, 0))

    b1, b2 = (3, 0), (4, 0)
    n1 = store.nactive(b1)
    delta = np.ones((n1 - 1, store.nactive(b2)))
    ops = [
        ("restrict", b1, np.arange(1, n1)),  # drop first active index
        ("delta", b1, b2, delta),
    ]
    before = store.get(b1, b2).copy()
    _apply_ops(store, ops, layout, layout.owner(b1))
    after = store.get(b1, b2)
    assert after.shape == (n1 - 1, store.nactive(b2))
    assert np.allclose(after, before[1:, :] - 1.0)


def test_apply_ops_skips_unheld_pairs(layout):
    m = 16
    pts = uniform_grid(m)
    kernel = GaussianKernelMatrix(pts, 1.0 / m, sigma=0.1)
    tree = QuadTree(pts, 3)
    active = {c: tree.leaf_points(*c) for c in tree.nonempty_leaves()}
    store = InteractionStore(kernel, active)
    rank0 = layout.owner((0, 0))
    # pair fully owned by the other rank: must be ignored by rank 0
    b1, b2 = (4, 0), (5, 0)
    ops = [("delta", b1, b2, np.ones((store.nactive(b1), store.nactive(b2))))]
    _apply_ops(store, ops, layout, rank0)
    assert not store.is_modified(b1, b2)


def test_apply_ops_shape_mismatch_raises(layout):
    m = 16
    pts = uniform_grid(m)
    kernel = GaussianKernelMatrix(pts, 1.0 / m, sigma=0.1)
    tree = QuadTree(pts, 3)
    active = {c: tree.leaf_points(*c) for c in tree.nonempty_leaves()}
    store = InteractionStore(kernel, active)
    b1, b2 = (3, 0), (4, 0)
    ops = [("delta", b1, b2, np.ones((1, 1)))]
    with pytest.raises(RuntimeError, match="shape mismatch"):
        _apply_ops(store, ops, layout, layout.owner(b1))


def test_cluster_segments_cover_cluster():
    """BoxRecord segments partition the cluster exactly."""
    from repro.core import SRSOptions, srs_factor

    m = 16
    pts = uniform_grid(m)
    kernel = GaussianKernelMatrix(pts, 1.0 / m, sigma=0.05, shift=1.0)
    fact = srs_factor(kernel, opts=SRSOptions(tol=1e-8, leaf_size=16))
    for rec in fact.records:
        if rec.cluster.size == 0:
            continue
        segs = rec.cluster_segments
        assert segs[0][1] == 0
        assert segs[-1][2] == rec.cluster.size
        for (b1, s1, e1), (b2, s2, e2) in zip(segs, segs[1:]):
            assert e1 == s2
        # first segment is the box's own skeleton
        assert segs[0][0] == rec.box
        assert np.array_equal(rec.cluster[segs[0][1] : segs[0][2]], rec.skeleton)


def test_arrivals_are_numbered_in_order_and_an_unsent_point_raises():
    m = 8
    pts = uniform_grid(m)
    full = HelmholtzKernelMatrix(pts, 1.0 / m, 6.0, b=gaussian_bump(pts))
    first = np.array([40, 3, 17])
    known = RankPoints(full.spawn(full.points[first], full.per_point_data(first)), first)
    # a refresh that repeats a known point, then an empty box
    again = np.array([17, 50, 2])
    known.append([
        (again, full.points[again], full.per_point_data(again)),
        (np.empty(0, dtype=np.int64), np.empty((0, 2)), {}),
    ])
    assert known.local_to_global.tolist() == [40, 3, 17, 50, 2]
    ids = np.array([2, 40, 17, 50])
    loc = known.local(ids, "a refresh")
    assert loc.tolist() == [4, 0, 2, 3]
    assert np.array_equal(known.kernel.block(loc, loc), full.block(ids, ids))
    # ids that arrive without coordinates (a reduction's active sets)
    # must already be known
    with pytest.raises(KeyError, match="the reduction message from rank 3 names global point 99"):
        known.local(np.array([2, 99]), "the reduction message from rank 3")
