"""Layer-potential kernel matrices: identities, quadrature, proxy contract."""

import numpy as np
import pytest

from repro.bie import (
    Circle,
    HelmholtzCFIE,
    HelmholtzDLP,
    HelmholtzSLP,
    LaplaceDLP,
    LaplaceSLP,
    StarCurve,
)
from repro.bie.solves import plane_wave
from repro.kernels.base import dense_matrix
from repro.tree.quadtree import QuadTree


@pytest.fixture(scope="module")
def star_bd():
    return StarCurve(1.0, 0.3, 5).discretize(512)


@pytest.fixture(scope="module")
def circle_bd():
    return Circle(0.75, center=(0.1, 0.2)).discretize(256)


def test_gauss_identity_double_layer(star_bd):
    """The Laplace DLP of the constant density is -1 inside, 0 outside."""
    dlp = LaplaceDLP(star_bd)
    ones = np.ones(star_bd.n)
    curve = star_bd.curve
    inside = curve.interior_point() + np.array([[0.05, -0.1], [0.2, 0.1]])
    outside = np.array([[3.0, 0.5], [0.1, -2.5]])
    assert np.allclose(dlp.potential(inside, ones), -1.0, atol=1e-10)
    assert np.allclose(dlp.potential(outside, ones), 0.0, atol=1e-10)


def test_single_layer_constant_density_on_circle(circle_bd):
    """On a circle of radius R the SLP of the unit density is -R ln R
    everywhere on the boundary; the Kapur--Rokhlin matrix must hit it."""
    slp = LaplaceSLP(circle_bd, kr_order=10)
    val = dense_matrix(slp) @ np.ones(circle_bd.n)
    r = circle_bd.curve.radius
    assert np.allclose(val, -r * np.log(r), atol=1e-8)


def test_helmholtz_interior_green_representation(star_bd):
    """For u solving the Helmholtz equation inside the curve,
    ``u(x) = S[du/dn](x) - D[u](x)`` at interior points — exercising both
    layer potentials, the normals, and the arc-length weights at once."""
    kappa = 4.0
    d = np.array([0.6, 0.8])
    u = plane_wave(star_bd.points, kappa, d)
    dudn = 1j * kappa * (star_bd.normals @ d) * u
    slp = HelmholtzSLP(star_bd, kappa)
    dlp = HelmholtzDLP(star_bd, kappa)
    x = star_bd.curve.interior_point() + np.array([[0.1, 0.05], [-0.15, 0.2]])
    rep = slp.potential(x, dudn) - dlp.potential(x, u)
    exact = plane_wave(x, kappa, d)
    assert np.max(np.abs(rep - exact)) < 1e-10


def test_cfie_combines_layers(star_bd):
    kappa, eta = 3.0, 2.0
    cfie = HelmholtzCFIE(star_bd, kappa, eta=eta, identity=0.5)
    slp = HelmholtzSLP(star_bd, kappa)
    dlp = HelmholtzDLP(star_bd, kappa)
    rows = np.arange(0, 60, 7)
    cols = np.arange(200, 260, 5)
    combined = dlp.block(rows, cols) - 1j * eta * slp.block(rows, cols)
    assert np.allclose(cfie.block(rows, cols), combined)
    # identity shows up on the diagonal only
    assert np.allclose(cfie.diagonal(), 0.5)


def test_block_diagonal_and_symmetry(circle_bd):
    slp = LaplaceSLP(circle_bd)
    idx = np.arange(circle_bd.n)
    a = slp.block(idx, idx)
    assert np.all(np.isfinite(a))
    assert np.allclose(np.diag(a), 0.0)  # Kapur-Rokhlin punctures the diagonal
    # symmetric kernel: A[i,j]/w_j == A[j,i]/w_i  away from the corrected band
    w = circle_bd.weights
    g = a / w[None, :]
    band = np.abs(np.subtract.outer(idx, idx)) % circle_bd.n
    band = np.minimum(band, circle_bd.n - band)
    far = band > 6
    assert np.allclose(g[far], g.T[far])


def test_dlp_diagonal_limit_matches_offdiagonal(circle_bd):
    """The analytic diagonal limit -kappa/(4 pi) continues the smooth
    kernel: on a circle every off-diagonal kernel value equals it."""
    dlp = LaplaceDLP(circle_bd)
    idx = np.arange(circle_bd.n)
    a = dlp.block(idx, idx)
    g = a / circle_bd.weights[None, :]
    limit = -circle_bd.curvature[0] / (4 * np.pi)
    off = g[0, 1:]
    assert np.allclose(off, limit, atol=1e-12)
    assert np.isclose(g[0, 0] * circle_bd.weights[0], a[0, 0])


def test_proxy_blocks_follow_layer_kernel(star_bd):
    """proxy_row_block must use the true (dipole) layer kernel so the ID
    compresses the operator actually being factorized."""
    dlp = LaplaceDLP(star_bd)
    cols = np.arange(40, 80)
    proxy = np.array([[3.0, 0.0], [0.0, 3.2], [-2.8, 0.4]])
    row_blk = dlp.proxy_row_block(proxy, cols)
    assert row_blk.shape == (3, cols.size)
    # evaluating the potential of a density supported on cols agrees
    density = np.zeros(star_bd.n)
    density[cols] = np.linspace(1, 2, cols.size)
    assert np.allclose(row_blk @ density[cols], dlp.potential(proxy, density))
    # the column surrogate is the monopole Green's function
    rows = np.arange(10, 30)
    col_blk = dlp.proxy_col_block(rows, proxy)
    assert np.allclose(col_blk, dlp.greens(star_bd.points[rows], proxy))


def test_check_tree_resolution(star_bd):
    slp = LaplaceSLP(star_bd)
    ok_tree = QuadTree(star_bd.points, 3)
    slp.check_tree_resolution(ok_tree)  # fine: band << leaf side
    deep = QuadTree(star_bd.points, 7)
    with pytest.raises(ValueError):
        slp.check_tree_resolution(deep)
    # smooth kernels have no corrected band to resolve
    LaplaceDLP(star_bd).check_tree_resolution(deep)


def test_resolution_guard_fires_from_factorization():
    """srs_factor invokes the guard itself, so a direct (non-driver)
    user cannot silently break proxy locality."""
    from repro.core import srs_factor

    bd = Circle().discretize(64)
    slp = LaplaceSLP(bd, kr_order=10)
    deep = QuadTree(bd.points, 4)
    with pytest.raises(ValueError, match="Kapur-Rokhlin band"):
        srs_factor(slp, tree=deep)


def test_validation():
    bd = Circle().discretize(64)
    with pytest.raises(ValueError):
        HelmholtzSLP(bd, -1.0)
    with pytest.raises(ValueError):
        HelmholtzCFIE(bd, 0.0)
    with pytest.raises(ValueError):
        LaplaceSLP(bd, kr_order=5)
    with pytest.raises(ValueError):
        LaplaceSLP(Circle().discretize(10), kr_order=6)


def test_dtypes(circle_bd):
    assert LaplaceSLP(circle_bd).dtype == np.float64
    assert LaplaceDLP(circle_bd).dtype == np.float64
    assert HelmholtzSLP(circle_bd, 2.0).dtype == np.complex128
    assert HelmholtzCFIE(circle_bd, 2.0).dtype == np.complex128
    assert not LaplaceSLP(circle_bd).is_translation_invariant


# ----------------------------------------------------------------------
# distributed support: rank-local spawn
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make",
    [
        lambda bd: LaplaceSLP(bd, kr_order=6),
        lambda bd: LaplaceDLP(bd, identity=-0.5),
        lambda bd: HelmholtzCFIE(bd, 6.0),
    ],
)
def test_spawn_matches_full_kernel_blocks(star_bd, make):
    """A spawned subset kernel must reproduce the exact entries of the
    full kernel — including the Kapur--Rokhlin band, which is defined by
    *global* periodic index distance."""
    full = make(star_bd)
    # a contiguous arc plus a far chunk: exercises band interior + edges
    subset = np.concatenate([np.arange(40, 80), np.arange(300, 330)])
    local = full.spawn(full.points[subset], full.per_point_data(subset))
    loc = np.arange(subset.size)
    np.testing.assert_array_equal(
        local.block(loc, loc), full.block(subset, subset)
    )
    proxy = np.array([[2.5, 0.0], [0.0, 2.5], [-2.5, 0.5]])
    np.testing.assert_array_equal(
        local.proxy_row_block(proxy, loc), full.proxy_row_block(proxy, subset)
    )
    np.testing.assert_array_equal(
        local.proxy_col_block(loc, proxy), full.proxy_col_block(subset, proxy)
    )


def test_spawn_tree_resolution_uses_global_spacing(star_bd):
    """check_tree_resolution must not overestimate the node spacing on a
    subset (local count != global count)."""
    full = LaplaceSLP(star_bd, kr_order=6)
    tree = QuadTree.for_leaf_size(star_bd.points, 64)
    full.check_tree_resolution(tree)  # sanity: fine on the full curve
    subset = np.arange(0, star_bd.n, 4)  # 4x fewer nodes
    local = full.spawn(full.points[subset], full.per_point_data(subset))
    local.check_tree_resolution(tree)  # must not raise either
    # nor *underestimate* it: a subset excluding the fastest arc must
    # still enforce the full-curve band (deep tree the full kernel rejects)
    deep = QuadTree(star_bd.points, 8)
    with pytest.raises(ValueError, match="Kapur-Rokhlin band"):
        full.check_tree_resolution(deep)
    slow = np.sort(np.argsort(star_bd.speed)[: star_bd.n // 2])  # slowest half
    local2 = full.spawn(full.points[slow], full.per_point_data(slow))
    with pytest.raises(ValueError, match="Kapur-Rokhlin band"):
        local2.check_tree_resolution(deep)


def test_spawn_potential_rejected(star_bd):
    full = LaplaceDLP(star_bd)
    subset = np.arange(100)
    local = full.spawn(full.points[subset], full.per_point_data(subset))
    with pytest.raises(RuntimeError, match="full-curve"):
        local.potential(np.array([[0.0, 0.0]]), np.ones(subset.size))


def test_parallel_factor_enforces_tree_resolution(star_bd):
    """The distributed driver must validate the KR band against the tree
    it will factor on, like the sequential path does."""
    from repro.geometry.domain import Square
    from repro.parallel import parallel_srs_factor
    from repro.core.options import SRSOptions

    slp = LaplaceSLP(star_bd, kr_order=10)
    dom = Square.bounding(star_bd.points)
    with pytest.raises(ValueError, match="Kapur-Rokhlin band"):
        parallel_srs_factor(
            slp, 4, opts=SRSOptions(tol=1e-8, leaf_size=4), nlevels=7, domain=dom
        )
