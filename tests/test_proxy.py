"""Tests for proxy-circle construction and the compression guarantee."""

import numpy as np
import pytest

from repro.core import SRSOptions, proxy_circle, proxy_point_count
from repro.core.proxy import PROXY_OVERSAMPLING, proxy_circle_stack
from repro.geometry import uniform_grid
from repro.kernels import HelmholtzKernelMatrix, LaplaceKernelMatrix
from repro.linalg import interp_decomp


def test_circle_geometry():
    pts = proxy_circle(np.array([0.5, 0.5]), 0.3, 32)
    r = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5)
    assert np.allclose(r, 0.3)
    assert pts.shape == (32, 2)


def test_circle_validation():
    with pytest.raises(ValueError):
        proxy_circle(np.zeros(2), -1.0, 8)
    with pytest.raises(ValueError):
        proxy_circle(np.zeros(2), 1.0, 0)


def test_point_count_constant_for_laplace():
    k = LaplaceKernelMatrix(uniform_grid(8), 1.0 / 8)
    opts = SRSOptions()
    assert proxy_point_count(k, 0.1, opts) == opts.n_proxy
    assert proxy_point_count(k, 100.0, opts) == opts.n_proxy


def test_point_count_scales_with_kappa():
    pts = uniform_grid(8)
    k = HelmholtzKernelMatrix(pts, 1.0 / 8, 200.0)
    opts = SRSOptions()
    big = proxy_point_count(k, 1.0, opts)
    assert big >= PROXY_OVERSAMPLING * 200.0


def test_options_validation():
    with pytest.raises(ValueError):
        SRSOptions(proxy_radius_factor=1.0)  # inside near field
    with pytest.raises(ValueError):
        SRSOptions(tol=-1)
    with pytest.raises(ValueError):
        SRSOptions(leaf_size=0)
    with pytest.raises(ValueError):
        SRSOptions(n_proxy=2)


def test_proxy_substitutes_far_field():
    """ID rank from [A_MB; proxy] matches rank from the true far field.

    This is the empirical claim of Sec. II-C (Theorem 1 relaxation):
    compressing against M(B) + proxy circle finds skeletons that also
    compress the full far field.
    """
    m = 32
    pts = uniform_grid(m)
    k = LaplaceKernelMatrix(pts, 1.0 / m)
    from repro.tree import QuadTree

    tree = QuadTree(pts, 3)
    box = (3, 3)  # interior box at leaf level
    bidx = tree.leaf_points(*box)
    nbrs = set(tree.neighbors(3, *box)) | {box}
    far = [c for c in tree.boxes(3) if c not in nbrs]
    far_idx = np.concatenate([tree.leaf_points(*c) for c in far])

    # true far-field compression
    a_fb = k.block(far_idx, bidx)
    true_dec = interp_decomp(a_fb, 1e-8)

    # proxy compression
    opts = SRSOptions(tol=1e-8)
    radius = opts.proxy_radius_factor * tree.box_side(3)
    proxy = proxy_circle_stack(
        tree.box_center(3, *box)[None], radius, proxy_point_count(k, radius, opts)
    )[0]
    m_idx = np.concatenate([tree.leaf_points(*c) for c in tree.dist2_neighbors(3, *box)])
    stacked = np.vstack([k.block(m_idx, bidx), k.proxy_row_block(proxy, bidx)])
    proxy_dec = interp_decomp(stacked, 1e-8)

    # proxy rank must be comparable (within a couple) of the true rank
    assert abs(proxy_dec.rank - true_dec.rank) <= 3
    # and the proxy skeleton must compress the true far field well
    sub = a_fb[:, proxy_dec.skeleton]
    t_fit = np.linalg.lstsq(sub, a_fb[:, proxy_dec.redundant], rcond=None)[0]
    err = np.linalg.norm(a_fb[:, proxy_dec.redundant] - sub @ t_fit, 2)
    assert err <= 1e-6 * np.linalg.norm(a_fb, 2)
