"""Contracts of the kernel layer (README "Kernels", INVARIANTS "determinism").

* a block that contains its diagonal is finite and built without a
  floating-point warning, for every kernel class;
* ``symmetric`` is checked, not trusted: the transposed block *is* the
  direct evaluation, scalar and stacked, and the two sweeps evaluate a
  pair once only for kernels that declare it;
* ``spawn`` over a renumbered subset is the same matrix, flags included;
* ``helmholtz_greens`` (``J0 + i Y0``) against 30-digit ``mpmath``;
* Green's-entry counts of a factor, against the counts of the commit
  before pair sharing — exact counts, no wall clock;
* the in-place ``block_stack`` against the allocation-per-pass one.
"""

import warnings

import numpy as np
import pytest
from conftest import Lopsided
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hankel1

from repro.apps import LaplaceVolumeProblem, ScatteringProblem
from repro.bie import InteriorDirichletProblem, StarCurve, harmonic_exponential
from repro.bie.layers import (
    HelmholtzCFIE,
    HelmholtzDLP,
    HelmholtzSLP,
    LaplaceDLP,
    LaplaceSLP,
)
from repro.core import SRSOptions, srs_factor
from repro.core import batch
from repro.core.interactions import InteractionStore
from repro.geometry import uniform_grid
from repro.kernels import (
    GaussianKernelMatrix,
    HelmholtzKernelMatrix,
    LaplaceKernelMatrix,
    YukawaKernelMatrix,
    helmholtz_greens,
)
from repro.kernels.base import KernelMatrix
from repro.kernels.helmholtz import gaussian_bump

M = 8
PTS = uniform_grid(M)
H = 1.0 / M


class ComplexWeightYukawa(YukawaKernelMatrix):
    """``k0(0) = inf`` one complex weight away from ``inf * (a + 0j)``."""

    def __init__(self, points, h, lam):
        super().__init__(points, h, lam)
        self.dtype = np.dtype(np.complex128)

    def spawn(self, points, data):
        return type(self)(points, self.h, self.lam)


def _volume_kernels():
    return {
        "laplace": LaplaceKernelMatrix(PTS, H),
        "yukawa": YukawaKernelMatrix(PTS, H, 3.0),
        "gaussian": GaussianKernelMatrix(PTS, H, sigma=0.2),
        "helmholtz": HelmholtzKernelMatrix(PTS, H, 7.0, b=gaussian_bump(PTS)),
    }


def _all_kernels():
    bd = StarCurve(1.0, 0.3, 5).discretize(64)
    return {
        **_volume_kernels(),
        "complex-weight-yukawa": ComplexWeightYukawa(PTS, H, 3.0),
        "lopsided": Lopsided(PTS, H, sigma=0.2),
        "laplace-slp": LaplaceSLP(bd),
        "laplace-dlp": LaplaceDLP(bd, identity=-0.5),
        "helmholtz-slp": HelmholtzSLP(bd, 5.0),
        "helmholtz-dlp": HelmholtzDLP(bd, 5.0),
        "helmholtz-cfie": HelmholtzCFIE(bd, 5.0),
    }


SYMMETRIC = _volume_kernels()
ALL = _all_kernels()
HERMITIAN = sorted(name for name, k in ALL.items() if k.hermitian)


# ----------------------------------------------------------------------
# coincident entries: overwritten silently, never multiplied into a warning
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ALL))
def test_block_with_its_diagonal_is_finite_and_silent(name):
    kernel = ALL[name]
    idx = np.arange(kernel.n, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blk = kernel.block(idx, idx)
        stack = kernel.block_stack(idx[None, :], idx[None, :])
    assert np.isfinite(blk).all()
    assert np.array_equal(np.diag(blk), kernel.diagonal())
    assert np.isfinite(stack).all()


# ----------------------------------------------------------------------
# `symmetric` is a checked contract
# ----------------------------------------------------------------------
def test_who_declares_symmetric():
    assert HERMITIAN == ["complex-weight-yukawa", "gaussian", "laplace", "yukawa"]
    assert all(k.symmetric for k in SYMMETRIC.values())
    assert [k.hermitian for k in SYMMETRIC.values()] == [True, True, True, False]
    assert not KernelMatrix.symmetric
    for name in ("lopsided", "laplace-slp", "laplace-dlp", "helmholtz-slp",
                 "helmholtz-dlp", "helmholtz-cfie"):
        assert not ALL[name].symmetric, name


@st.composite
def index_stacks(draw):
    """``(nb, r)`` / ``(nb, c)`` index stacks: empty, disjoint, overlapping."""
    nb, r, c = draw(st.integers(0, 3)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.array([rng.choice(M * M, r, replace=False) for _ in range(nb)],
                    dtype=np.int64).reshape(nb, r)
    cols = np.array([rng.choice(M * M, c, replace=False) for _ in range(nb)],
                    dtype=np.int64).reshape(nb, c)
    shared = draw(st.integers(0, min(r, c)))
    cols[:, :shared] = rows[:, :shared]  # forced overlap: diagonal entries
    return rows, cols


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
@settings(max_examples=60, deadline=None)
@given(stacks=index_stacks())
def test_transposed_block_is_the_direct_evaluation(name, stacks):
    kernel = SYMMETRIC[name]
    rows, cols = stacks
    stack = kernel.block_stack(rows, cols)
    assert np.array_equal(stack, kernel.block_stack(cols, rows).transpose(0, 2, 1))
    bitwise = type(kernel).greens_stack is KernelMatrix.greens_stack
    for b in range(rows.shape[0]):
        blk = kernel.block(rows[b], cols[b])
        assert np.array_equal(blk, kernel.block(cols[b], rows[b]).T)
        if bitwise:
            assert np.array_equal(stack[b], blk)
        else:  # greens_stack's documented last-ulp freedom
            assert np.allclose(stack[b], blk, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", sorted(ALL))
def test_spawn_is_the_same_matrix_in_a_new_numbering(name):
    # a distributed rank factors on the kernel spawned over the points it
    # knows, numbered in arrival order: same flags, same entries
    kernel = ALL[name]
    sub = np.random.default_rng(5).permutation(kernel.n)[: kernel.n // 2]
    spawned = kernel.spawn(kernel.points[sub], kernel.per_point_data(sub))
    assert spawned.symmetric is kernel.symmetric
    assert spawned.hermitian is kernel.hermitian
    assert spawned.dtype == kernel.dtype
    if kernel.symmetric or kernel.hermitian:
        assert spawned.weight_ratio == kernel.weight_ratio
    local = np.arange(sub.size)
    assert np.array_equal(spawned.block(local, local), kernel.block(sub, sub))


@pytest.mark.parametrize("name", HERMITIAN)
def test_hermitian_kernel_has_one_weight_ratio(name):
    # what halving a hermitian box's compression matrix rests on: one
    # col_w / row_w for the kernel, so the proxy row panel is the column
    # panel's transpose times it
    kernel = ALL[name]
    idx = np.arange(kernel.n, dtype=np.int64)
    alpha = kernel.weight_ratio
    assert np.array_equal(kernel.col_weights(idx) / kernel.row_weights(idx),
                          np.full(kernel.n, alpha))
    proxy = np.column_stack([np.linspace(-1.0, 2.0, 11), np.full(11, 1.7)])
    cols = idx[::5]
    np.testing.assert_allclose(
        kernel.proxy_row_block(proxy, cols),
        alpha * kernel.proxy_col_block(cols, proxy).T, rtol=1e-15, atol=0,
    )
    np.testing.assert_allclose(
        kernel.proxy_row_block_stack(proxy[None], cols[None]),
        alpha * kernel.proxy_col_block_stack(cols[None], proxy[None]).transpose(0, 2, 1),
        rtol=1e-15, atol=0,
    )


class _BlockCalls:
    """Mixin counting ``block`` calls."""

    def block(self, rows, cols):
        self.calls = getattr(self, "calls", 0) + 1
        return super().block(rows, cols)


def _two_box_store(kernel_cls, *args, **kw):
    class Counting(_BlockCalls, kernel_cls):
        pass

    kernel = Counting(PTS, H, *args, **kw)
    active = {(0, 0): np.arange(0, 6), (2, 0): np.arange(40, 45)}
    return kernel, InteractionStore(kernel, active)


def test_get_pair_evaluates_a_symmetric_pair_once():
    kernel, store = _two_box_store(HelmholtzKernelMatrix, 7.0, b=gaussian_bump(PTS))
    fwd, rev = store.get_pair((0, 0), (2, 0))
    assert kernel.calls == 1
    assert rev.flags.c_contiguous
    assert np.array_equal(fwd, store.get((0, 0), (2, 0)))
    assert np.array_equal(rev, store.get((2, 0), (0, 0)))


def test_get_pair_evaluates_both_directions_of_an_asymmetric_pair():
    kernel, store = _two_box_store(Lopsided, sigma=0.2)
    fwd, rev = store.get_pair((0, 0), (2, 0))
    assert kernel.calls == 2
    assert not np.array_equal(rev, fwd.T)
    assert np.array_equal(rev, store.get((2, 0), (0, 0)))


def test_get_pair_returns_modified_blocks_as_stored():
    kernel, store = _two_box_store(Lopsided, sigma=0.2)
    stored = store.get_writable((2, 0), (0, 0))
    stored += 1.0
    kernel.calls = 0
    fwd, rev = store.get_pair((0, 0), (2, 0))
    assert rev is stored
    assert kernel.calls == 1  # the unmodified direction, evaluated directly
    assert np.array_equal(fwd, kernel.block(np.arange(0, 6), np.arange(40, 45)))
    assert store.get_pair((2, 0), (0, 0))[0] is stored


# ----------------------------------------------------------------------
# sharing is decided by the declaration alone, and changes no bits
# ----------------------------------------------------------------------
def _counting(base):
    """``base`` with a class-level count of the Green's entries it evaluates."""

    class Counting(base):
        entries = 0

        def _count(self, g):
            type(self).entries += g.size
            return g

        def greens(self, x, y):
            return self._count(super().greens(x, y))

        def layer_greens(self, x, cols):  # the BIE classes' true kernel
            return self._count(super().layer_greens(x, cols))

        if base.greens_stack is not KernelMatrix.greens_stack:  # else it is greens

            def greens_stack(self, x, y, out=None):
                return self._count(super().greens_stack(x, y, out=out))

    return Counting


def _factor_counting(base, mode, *args, tree=None, tol=1e-6, **kw):
    cls = _counting(base)
    fact = srs_factor(cls(*args, **kw), tree=tree,
                      opts=SRSOptions(tol=tol, factor_mode=mode))
    return cls.entries, fact


def _same_records(f1, f2) -> bool:
    return len(f1.records) == len(f2.records) and all(
        np.array_equal(getattr(r1, name), getattr(r2, name))
        for r1, r2 in zip(f1.records, f2.records)
        for name in ("redundant", "skeleton", "cluster", "T", "e_cr", "g_rc")
    ) and all(
        np.array_equal(r1.lu._lu, r2.lu._lu) for r1, r2 in zip(f1.records, f2.records)
    )


class UndeclaredLaplace(LaplaceKernelMatrix):
    symmetric = False  # still Hermitian: the store and the CPQR halving read that


class UndeclaredHelmholtz(HelmholtzKernelMatrix):
    symmetric = False  # so a general kernel: both orientations, four panels


@pytest.mark.parametrize("mode", ["strict", "batched"])
def test_undeclaring_a_symmetric_kernel_costs_evaluations_not_bits(mode):
    pts = uniform_grid(16)
    # a hermitian kernel's store asks for one orientation of every pair
    # and the halved compression matrix for A[M, B] only: nothing to
    # share, and nothing else depends on the declaration
    shared, f_shared = _factor_counting(LaplaceKernelMatrix, mode, pts, 1 / 16)
    both, f_both = _factor_counting(UndeclaredLaplace, mode, pts, 1 / 16)
    assert _same_records(f_shared, f_both)
    assert shared == both
    # undeclared, Helmholtz also loses its one-sided store and real
    # half-height ID: other bits, the same operator to the ID tolerance
    args, kw = (pts, 1 / 16, 9.0), {"b": gaussian_bump(pts)}
    shared, f_shared = _factor_counting(HelmholtzKernelMatrix, mode, *args, **kw)
    both, f_both = _factor_counting(UndeclaredHelmholtz, mode, *args, **kw)
    assert shared < 0.6 * both
    # T is stored complex either way; a real ID's has no imaginary part
    assert not any(r.T.imag.any() for r in f_shared.records)
    assert any(r.T.imag.any() for r in f_both.records)
    b = np.random.default_rng(2).standard_normal(pts.shape[0]) + 0j
    x_shared, x_both = f_shared.solve(b), f_both.solve(b)
    assert np.linalg.norm(x_shared - x_both) <= 1e-6 * np.linalg.norm(x_both)


#: Green's / layer-kernel entries per factor. Batched: read at 4af2780,
#: the commit before pair sharing, so equal counts = every direction
#: still evaluated. (Record digests were equal too, at
#: OPENBLAS_NUM_THREADS=1; they move with the BLAS thread count, so they
#: are in CHANGES.md, not here.) Strict: read since it compresses
#: through the one-box compress stage, whose near-field prefill
#: evaluates each neighbour pair once and stores it for elimination.
LOPSIDED_AT_PARENT = {"strict": 117_760, "batched": 127_488}
DLP_AT_PARENT = {"strict": 112_816, "batched": 113_952}


@pytest.mark.parametrize("mode", ["strict", "batched"])
def test_asymmetric_kernel_is_evaluated_in_both_directions(mode):
    entries, fact = _factor_counting(
        Lopsided, mode, uniform_grid(16), 1 / 16, sigma=0.2, tol=1e-8
    )
    assert entries == LOPSIDED_AT_PARENT[mode]
    kernel = Lopsided(uniform_grid(16), 1 / 16, sigma=0.2)
    b = np.random.default_rng(3).standard_normal(kernel.n)
    a = kernel.block(np.arange(kernel.n), np.arange(kernel.n))
    assert not np.array_equal(a, a.T)
    assert np.linalg.norm(a @ fact.solve(b) - b) <= 1e-6 * np.linalg.norm(b)


@pytest.mark.parametrize("mode", ["strict", "batched"])
def test_double_layer_is_evaluated_in_both_directions(mode):
    prob = InteriorDirichletProblem(StarCurve(1.0, 0.3, 5), 256)
    entries, fact = _factor_counting(
        LaplaceDLP, mode, prob.kernel.bd, identity=prob.kernel.identity,
        tree=prob.tree, tol=1e-10,
    )
    assert entries == DLP_AT_PARENT[mode]
    assert prob.solve_error(harmonic_exponential, fact) <= 1e-8


# ----------------------------------------------------------------------
# H0 = J0 + i Y0: accuracy
# ----------------------------------------------------------------------
def test_helmholtz_greens_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    z = np.logspace(-3, 3, 400)
    ref = np.array([complex(0.25j * mpmath.hankel1(0, mpmath.mpf(float(v)))) for v in z])
    x = np.column_stack([z, np.zeros_like(z)])
    ours = np.abs(helmholtz_greens(x, np.zeros((1, 2)), 1.0)[:, 0] - ref).max()
    amos = np.abs(0.25j * hankel1(0, z) - ref).max()
    assert ours <= 4e-15
    assert ours <= 4 * amos


def test_helmholtz_greens_coincident_is_nan_nan():
    pts = PTS[:3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = helmholtz_greens(pts, pts, 3.0)
    assert np.isnan(np.diag(g).real).all() and np.isnan(np.diag(g).imag).all()
    off = ~np.eye(3, dtype=bool)
    assert np.isfinite(g[off]).all()
    assert np.array_equal(g[off], g.T[off])


# ----------------------------------------------------------------------
# evaluation counts (Green's entries of one factor; exact, no clock)
# ----------------------------------------------------------------------
#: Green's entries per factor at 4af2780 (every pair evaluated in both
#: directions unless the kernel was Hermitian *and* the sweep batched);
#: batched Laplace re-read since a hermitian box evaluates one proxy
#: panel, not two (620,812 before); a Helmholtz box does too since its
#: ID became real
HELMHOLTZ24_AT_PARENT = {"batched": 408_316, "strict": 414_877}
LAPLACE32_AT_PARENT = {"batched": 555_276, "strict": 1_065_648}


def test_helmholtz_factor_evaluates_each_pair_once():
    p = ScatteringProblem(24, 12.0)
    args = (p.points, p.h, p.kappa)
    batched, _ = _factor_counting(HelmholtzKernelMatrix, "batched", *args, b=p.b)
    strict, _ = _factor_counting(HelmholtzKernelMatrix, "strict", *args, b=p.b)
    # read 214,526 batched / 207,906 strict: sharing plus one proxy panel
    # a box (the proxy stacks went 73,728 -> 36,864 entries with the
    # complex-symmetric half-height ID; 251,390 / 244,770 before)
    assert batched <= 0.53 * HELMHOLTZ24_AT_PARENT["batched"]
    assert strict <= 0.51 * HELMHOLTZ24_AT_PARENT["strict"]


def test_laplace_factor_counts():
    p = LaplaceVolumeProblem(m=32)
    batched, _ = _factor_counting(LaplaceKernelMatrix, "batched", p.points, p.h)
    strict, _ = _factor_counting(LaplaceKernelMatrix, "strict", p.points, p.h)
    # batched already shared Hermitian pairs; strict now shares its reads
    # and, like batched, evaluates one proxy panel a box
    assert batched == LAPLACE32_AT_PARENT["batched"]
    assert strict <= 0.85 * LAPLACE32_AT_PARENT["strict"]


# ----------------------------------------------------------------------
# in-place block_stack == the allocation-per-pass reference, bitwise
# ----------------------------------------------------------------------
def _reference_greens_stack(kernel, x, y):
    """Every pass a fresh array: the closed forms as first written."""
    dx = x[..., :, None, 0] - y[..., None, :, 0]
    dy = x[..., :, None, 1] - y[..., None, :, 1]
    if isinstance(kernel, LaplaceKernelMatrix):
        return -np.log(dx * dx + dy * dy) / (4.0 * np.pi)
    if isinstance(kernel, GaussianKernelMatrix):
        return np.exp(-(dx * dx + dy * dy) / (2.0 * kernel.sigma**2))
    return kernel.greens(x, y)


def _reference_block_stack(kernel, rows, cols):
    nb, r = rows.shape
    c = cols.shape[1]
    if nb == 0 or r == 0 or c == 0:
        return np.zeros((nb, r, c), dtype=kernel.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = _reference_greens_stack(kernel, kernel.points[rows], kernel.points[cols])
        rw = kernel.row_weights(rows.reshape(-1)).reshape(nb, r, 1)
        cw = kernel.col_weights(cols.reshape(-1)).reshape(nb, 1, c)
        blk = (g * (rw * cw)).astype(kernel.dtype, copy=False)
    same = rows[:, :, None] == cols[:, None, :]
    bb, ii, jj = np.nonzero(same)
    blk[bb, ii, jj] = kernel.diagonal()[rows[bb, ii]]
    return blk


def _mixed_stack():
    """Self pairs, overlapping-range non-self pairs, far pairs."""
    box = np.arange(6, dtype=np.int64)
    rows = np.stack([box, box + 10, 2 * box, box + 40, box + 50])
    cols = np.stack([box, box + 10, 2 * box + 1, box, box + 52])
    return rows, cols


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_inplace_block_stack_is_the_reference_bitwise(name):
    kernel = SYMMETRIC[name]
    rows, cols = _mixed_stack()
    assert np.array_equal(
        kernel.block_stack(rows, cols), _reference_block_stack(kernel, rows, cols)
    )
    proxy = np.random.default_rng(5).uniform(2.0, 3.0, (rows.shape[0], 7, 2))
    cw = kernel.col_weights(cols.reshape(-1)).reshape(-1, 1, 6)
    assert np.array_equal(
        kernel.proxy_row_block_stack(proxy, cols),
        _reference_greens_stack(kernel, proxy, kernel.points[cols]) * cw,
    )
    rw = kernel.row_weights(rows.reshape(-1)).reshape(-1, 6, 1)
    assert np.array_equal(
        kernel.proxy_col_block_stack(rows, proxy),
        rw * _reference_greens_stack(kernel, kernel.points[rows], proxy),
    )
    for shape in ((0, 6), (3, 0)):
        empty = np.zeros(shape, dtype=np.int64)
        other = np.zeros((shape[0], 4), dtype=np.int64)
        assert kernel.block_stack(empty, other).shape == (shape[0], shape[1], 4)
        assert kernel.block_stack(other, empty).shape == (shape[0], 4, shape[1])


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_chunk_boundary_inside_a_stack(name, monkeypatch):
    kernel = SYMMETRIC[name]
    rows, cols = _mixed_stack()
    active = {(i, 0): rows[i] for i in range(5)} | {(i, 1): cols[i] for i in range(5)}
    store = InteractionStore(kernel, active)
    pairs = {((i, 0), (i, 1)): None for i in range(5)}
    monkeypatch.setattr(batch, "EVAL_CHUNK_ELEMENTS", 2 * 36)  # 5 pairs -> 2 + 2 + 1
    ref = _reference_block_stack(kernel, rows, cols)
    got = dict(batch._eval_pairs(store, pairs))
    assert list(got) == list(pairs)
    for i in range(5):
        assert np.array_equal(got[(i, 0), (i, 1)], ref[i])
