"""Batched-vs-strict factor sweep parity (repro.core.batch).

The contract under test (INVARIANTS.md, "factor-batching"): batching
reorders assembly and compression, never elimination. ``strict`` stays
bitwise-reproducible; ``batched`` agrees to the ID tolerance on every
kernel family and execution backend: the hermitian half-height
compression (Laplace/Gaussian), its complex-symmetric real form
(Helmholtz) and the general four-panel one (layer potentials).
"""

import numpy as np
import pytest

from repro.apps import LaplaceVolumeProblem, ScatteringProblem
from repro.bie import InteriorDirichletProblem, StarCurve, harmonic_exponential
from repro.core import SRSOptions, srs_factor
from repro.core.proxy import proxy_circle, proxy_circle_stack
from repro.core.skel import BoxRecord
from repro.geometry import uniform_grid
from repro.kernels import (
    GaussianKernelMatrix,
    HelmholtzKernelMatrix,
    LaplaceKernelMatrix,
    dense_matrix,
)
from repro.kernels.helmholtz import gaussian_bump
from repro.parallel import parallel_srs_factor
from repro.parallel.worker import scatter_payloads
from repro.tree import QuadTree
from repro.vmpi import process_backend_available


from repro.core import batch
from repro.core.batch import color_phases, compress_phase
from repro.core.interactions import InteractionStore
from repro.core.proxy import proxy_point_count
from repro.core.skel import eliminate_box
from repro.kernels import YukawaKernelMatrix
from repro.linalg import interp_decomp


def relres(a, x, b):
    return np.linalg.norm(a @ x - b) / np.linalg.norm(b)


def factor_pair(kernel, **kw):
    strict = srs_factor(kernel, opts=SRSOptions(factor_mode="strict", **kw))
    batched = srs_factor(kernel, opts=SRSOptions(factor_mode="batched", **kw))
    return strict, batched


# ----------------------------------------------------------------------
# parity: batched solves match strict to the ID tolerance
# ----------------------------------------------------------------------
def test_laplace_parity(laplace32, laplace32_dense, rng):
    strict, batched = factor_pair(laplace32, tol=1e-9, leaf_size=32)
    b = rng.standard_normal(laplace32.n)
    r_s = relres(laplace32_dense, strict.solve(b), b)
    r_b = relres(laplace32_dense, batched.solve(b), b)
    assert r_b < 10 * r_s + 1e-12
    assert batched.eliminated_count() == laplace32.n


def test_gaussian_parity_machine_precision(gaussian16, gaussian16_dense, rng):
    strict, batched = factor_pair(gaussian16, tol=1e-12, leaf_size=16)
    b = rng.standard_normal(gaussian16.n)
    assert relres(gaussian16_dense, batched.solve(b), b) < 1e-12


def test_helmholtz_parity_complex_symmetric(helmholtz24, helmholtz24_dense, rng):
    # complex symmetric but NOT Hermitian: exercises the real [Re; Im]
    # half-height ID and the one-sided store of complex blocks
    assert helmholtz24.symmetric and not helmholtz24.hermitian
    strict, batched = factor_pair(helmholtz24, tol=1e-8, leaf_size=24)
    b = rng.standard_normal(helmholtz24.n) + 1j * rng.standard_normal(helmholtz24.n)
    r_s = relres(helmholtz24_dense, strict.solve(b), b)
    r_b = relres(helmholtz24_dense, batched.solve(b), b)
    assert r_b < 10 * r_s + 1e-12


def test_bie_parity_scalar_fallback():
    # BIE kernels are not greens_vectorized: the batched sweep must
    # fall back to per-box evaluation inside the stacked API
    prob = InteriorDirichletProblem(StarCurve(1.0, 0.3, 5), 512)
    opts = SRSOptions(tol=1e-10, factor_mode="batched")
    fact = srs_factor(prob.kernel, tree=prob.tree, opts=opts)
    assert fact.eliminated_count() == 512
    assert prob.solve_error(harmonic_exponential, fact) <= 1e-8


def test_ranks_close_to_strict(laplace32):
    strict, batched = factor_pair(laplace32, tol=1e-9, leaf_size=32)
    total_s = sum(rec.rank for rec in strict.records)
    total_b = sum(rec.rank for rec in batched.records)
    # same operators compressed at the same tolerance: skeleton totals
    # may differ within the tolerance, not structurally
    assert abs(total_s - total_b) <= 0.05 * total_s + 8


# ----------------------------------------------------------------------
# strict reproducibility and mode resolution
# ----------------------------------------------------------------------
def _record_state(fact):
    """Every array a ``BoxRecord`` holds, LU factors and pivots included."""
    return [
        (
            rec.box,
            rec.level,
            rec.cluster_segments,
            rec.redundant.tobytes(),
            rec.skeleton.tobytes(),
            rec.cluster.tobytes(),
            rec.T.tobytes(),
            rec.e_cr.tobytes(),
            rec.g_rc.tobytes(),
            rec.lu._lu.tobytes(),
            rec.lu._piv.tobytes(),
        )
        for rec in fact.records
    ]


def test_strict_bitwise_reproducible(gaussian16):
    opts = SRSOptions(tol=1e-8, leaf_size=16, factor_mode="strict")
    a = srs_factor(gaussian16, opts=opts)
    b = srs_factor(gaussian16, opts=opts)
    assert _record_state(a) == _record_state(b)


def test_batched_deterministic(gaussian16):
    opts = SRSOptions(tol=1e-8, leaf_size=16, factor_mode="batched")
    a = srs_factor(gaussian16, opts=opts)
    b = srs_factor(gaussian16, opts=opts)
    assert _record_state(a) == _record_state(b)


def test_unknown_factor_mode_rejected():
    with pytest.raises(ValueError, match="factor_mode"):
        SRSOptions(factor_mode="sideways")


def test_auto_is_not_a_factor_mode():
    """The mode is said once, in the field: no deferral to anything else."""
    from repro.api.config import SolveConfig

    assert SRSOptions().factor_mode == "strict"
    with pytest.raises(ValueError, match="factor_mode"):
        SRSOptions(factor_mode="auto")
    with pytest.raises(ValueError, match="factor_mode"):
        SolveConfig(factor_mode="auto")


def test_solveconfig_factor_mode_shorthand():
    from repro.api.config import SolveConfig

    cfg = SolveConfig(factor_mode="batched")
    assert cfg.srs.factor_mode == "batched"
    assert SolveConfig().srs.factor_mode == "strict"
    with pytest.raises(ValueError, match="factor_mode"):
        SolveConfig(factor_mode="sideways")


def test_setup_key_incorporates_resolved_mode():
    """Strict and batched configs never share a cached factorization:
    their setup keys differ; the default config is the strict one."""
    from repro.api.config import SolveConfig
    from repro.api.strategies import setup_key

    key_strict = setup_key(SolveConfig(factor_mode="strict"))
    key_batched = setup_key(SolveConfig(factor_mode="batched"))
    assert key_strict != key_batched
    assert setup_key(SolveConfig()) == key_strict
    assert setup_key(SolveConfig(srs=SRSOptions(factor_mode="batched"))) == key_batched


# ----------------------------------------------------------------------
# execution-backend matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("mode", ["strict", "batched"])
def test_parallel_backend_mode_matrix(backend, mode, gaussian16, rng):
    opts = SRSOptions(tol=1e-10, leaf_size=16, factor_mode=mode)
    fact = parallel_srs_factor(gaussian16, 4, opts=opts, backend=backend)
    a = dense_matrix(gaussian16)
    b = rng.standard_normal(gaussian16.n)
    assert relres(a, fact.solve(b), b) < 1e-10


@pytest.mark.parametrize(
    "mode, backend",
    [pytest.param(mode, "thread", id=mode) for mode in ("strict", "batched")]
    + [
        pytest.param(
            mode, "process", id=f"{mode}-process",
            marks=pytest.mark.skipif(
                not process_backend_available(), reason="no process backend here"
            ),
        )
        for mode in ("strict", "batched")
    ],
)
@pytest.mark.parametrize(
    "make_problem",
    [lambda: LaplaceVolumeProblem(m=32), lambda: ScatteringProblem(32, 10.0)],
    ids=["laplace-hermitian", "scattering"],
)
def test_one_rank_is_the_sequential_sweep_bitwise(make_problem, mode, backend):
    # the gate on "one sweep engine": with p=1 every box is interior, the
    # halo is empty and no message is sent, so the distributed driver
    # must reduce to srs_factor — same sweep, same parent assembly, in
    # either mode — down to the last bit of every record
    prob = make_problem()
    opts = SRSOptions(tol=1e-6, leaf_size=16, factor_mode=mode)
    seq = srs_factor(prob.kernel, opts=opts)
    par = parallel_srs_factor(
        prob.kernel, 1, opts=opts, backend=backend, domain=prob.parallel_domain
    )
    assert par.factor_run.total_messages == 0
    assert _record_state(par.workers[0]) == _record_state(seq)
    # the rank factors in its own (Morton, own-first) numbering, so the
    # equality above also checks the map back to global ids
    (scatter,) = scatter_payloads(prob.kernel, par.nlevels, prob.parallel_domain, 1)
    assert not np.array_equal(scatter["ids"], np.arange(prob.kernel.n))


def test_parallel_batched_matches_sequential_quality(laplace32, laplace32_dense, rng):
    opts = SRSOptions(tol=1e-9, leaf_size=32, factor_mode="batched")
    seq = srs_factor(laplace32, opts=opts)
    par = parallel_srs_factor(laplace32, 4, opts=opts, backend="thread")
    b = rng.standard_normal(laplace32.n)
    r_seq = relres(laplace32_dense, seq.solve(b), b)
    r_par = relres(laplace32_dense, par.solve(b), b)
    assert r_par < 10 * r_seq + 1e-12


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
def test_no_far_field_level(rng):
    # nlevels=1: 2x2 leaves, nside < 4 everywhere — no proxy, no M(B)
    m = 8
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.05, shift=1.0)
    tree = QuadTree(k.points, 1)
    fact = srs_factor(k, tree=tree, opts=SRSOptions(tol=1e-10, factor_mode="batched"))
    b = rng.standard_normal(k.n)
    assert relres(dense_matrix(k), fact.solve(b), b) < 1e-10


def test_nothing_redundant_at_tight_tolerance(rng):
    # at tol ~ eps the ID keeps (nearly) every column: zero-redundant
    # boxes must flow through the batched stages without special-casing
    m = 8
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    fact = srs_factor(k, opts=SRSOptions(tol=1e-16, leaf_size=16, factor_mode="batched"))
    b = rng.standard_normal(k.n)
    assert relres(dense_matrix(k), fact.solve(b), b) < 1e-11


# ----------------------------------------------------------------------
# stacked kernel API units
# ----------------------------------------------------------------------
def test_proxy_circle_stack_bitwise():
    centers = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]])
    stack = proxy_circle_stack(centers, 0.25, 17)
    assert stack.shape == (3, 17, 2)
    for i, c in enumerate(centers):
        assert np.array_equal(stack[i], proxy_circle(c, 0.25, 17))


def test_block_stack_matches_per_box(laplace32):
    rng = np.random.default_rng(7)
    rows = rng.integers(0, laplace32.n, size=(5, 12))
    cols = rng.integers(0, laplace32.n, size=(5, 9))
    stack = laplace32.block_stack(rows, cols)
    for i in range(5):
        ref = laplace32.block(rows[i], cols[i])
        # allclose, not bitwise: greens_stack may use the squared-
        # distance closed form (log(r^2)/2 vs log(r))
        assert np.allclose(stack[i], ref, rtol=1e-13, atol=0)


def test_block_stack_fallback_is_bitwise(helmholtz24):
    class Scalar(type(helmholtz24)):
        greens_vectorized = False

    scalar = Scalar(
        helmholtz24.points, helmholtz24.h, helmholtz24.kappa, b=helmholtz24.b
    )
    rng = np.random.default_rng(11)
    rows = rng.integers(0, scalar.n, size=(3, 8))
    cols = rng.integers(0, scalar.n, size=(3, 8))
    stack = scalar.block_stack(rows, cols)
    for i in range(3):
        assert np.array_equal(stack[i], scalar.block(rows[i], cols[i]))


def test_proxy_block_stacks_match_per_box(laplace32):
    rng = np.random.default_rng(3)
    cols = rng.integers(0, laplace32.n, size=(4, 10))
    proxy = np.stack(
        [proxy_circle(np.array([0.3 + 0.1 * i, 0.4]), 0.2, 13) for i in range(4)]
    )
    row_stack = laplace32.proxy_row_block_stack(proxy, cols)
    col_stack = laplace32.proxy_col_block_stack(cols, proxy)
    for i in range(4):
        assert np.allclose(
            row_stack[i], laplace32.proxy_row_block(proxy[i], cols[i]),
            rtol=1e-13, atol=0,
        )
        assert np.allclose(
            col_stack[i], laplace32.proxy_col_block(cols[i], proxy[i]),
            rtol=1e-13, atol=0,
        )


def test_hermitian_flags():
    pts = uniform_grid(4)
    assert LaplaceKernelMatrix(pts, 0.25).hermitian
    assert GaussianKernelMatrix(pts, 0.25).hermitian
    assert not HelmholtzKernelMatrix(pts, 0.25, 2.0, b=gaussian_bump(pts)).hermitian


# ----------------------------------------------------------------------
# one compression arithmetic: the half-height matrix of a symmetric kernel
# ----------------------------------------------------------------------
def _jittered(m, seed):
    """An ``m x m`` grid moved by up to a fifth of a cell: no norm ties."""
    jitter = np.random.default_rng(seed).uniform(-0.1, 0.1, (m * m, 2))
    return np.clip(uniform_grid(m) + jitter / m, 0.0, 1.0)


def _leaf_store(kernel, tree):
    active = {c: tree.leaf_points(*c) for c in tree.nonempty_leaves()}
    return InteractionStore(kernel, active)


def _four_panels(kernel, tree, store, level, box, opts):
    """``[A[M,B]; A[B,M]^*; K[P,B]; K[B,P]^*]`` (Eq. 5/7), per-box calls."""
    bidx = store.active_of(box)
    ring = [store.active_of(mb) for mb in tree.dist2_neighbors(level, *box)
            if mb in store.active and store.nactive(mb) > 0]
    radius = opts.proxy_radius_factor * tree.box_side(level)
    proxy = proxy_circle(tree.box_center(level, *box), radius,
                         proxy_point_count(kernel, radius, opts))
    return np.vstack(
        [kernel.block(ix, bidx) for ix in ring]
        + [kernel.block(bidx, ix).conj().T for ix in ring]
        + [kernel.proxy_row_block(proxy, bidx),
           kernel.proxy_col_block(bidx, proxy).conj().T]
    )


def _half_height_matches_four_panels(kernel, tree, level, monkeypatch):
    """The stack a box's ID runs on against the four panels, box by box.

    The stack is the half-height matrix for a hermitian kernel and its
    real ``[Re; Im]`` stack for a complex-symmetric one; either way its
    Gram matrix is half the four panels' one, which is real, so CPQR
    picks the same skeleton and a real ``T``.
    """
    store = _leaf_store(kernel, tree)
    opts = SRSOptions()
    seen, real = [], batch.interp_decomp_stack

    def spy(stack, *args, **kw):
        seen.append(stack.copy())
        return real(stack, *args, **kw)

    monkeypatch.setattr(batch, "interp_decomp_stack", spy)
    for box in [(3, 4), (0, 0), (7, 2)]:
        seen.clear()
        dec = compress_phase(store, kernel, tree, level, [box], opts)[box]
        (half,) = seen[0]
        four = _four_panels(kernel, tree, store, level, box, opts)
        assert half.shape[0] == four.shape[0] // (2 if kernel.hermitian else 1)
        gram_half, gram_four = half.conj().T @ half, four.conj().T @ four
        scale = np.linalg.norm(gram_four)
        assert np.linalg.norm(gram_four.imag) <= 1e-14 * scale
        assert np.linalg.norm(2 * gram_half - gram_four) <= 1e-14 * scale
        got, want = interp_decomp(half, opts.tol), interp_decomp(four, opts.tol)
        assert 0 < want.rank < want.skeleton.size + want.redundant.size
        assert np.array_equal(got.skeleton, want.skeleton)
        assert np.isrealobj(got.T) and not dec.T.imag.any()
        assert dec.T.dtype == kernel.dtype and np.array_equal(dec.T.real, got.T)
        # pivots past the rank cut may swap (their norms are ~tol): T's
        # columns are compared by the redundant column they interpolate
        t_got = got.T[:, np.argsort(got.redundant)]
        t_want = want.T[:, np.argsort(want.redundant)]
        assert np.linalg.norm(t_got - t_want) <= 1e-10 * np.linalg.norm(t_want)


@pytest.mark.parametrize("make", [
    lambda pts, h: LaplaceKernelMatrix(pts, h),
    lambda pts, h: YukawaKernelMatrix(pts, h, 3.0),
    lambda pts, h: GaussianKernelMatrix(pts, h, sigma=0.2),
], ids=["laplace", "yukawa", "gaussian"])
def test_hermitian_half_height_matrix_has_the_four_panel_id(make, monkeypatch):
    m, level = 48, 3
    pts = _jittered(m, 5)
    kernel = make(pts, 1.0 / m)
    assert kernel.hermitian
    _half_height_matches_four_panels(kernel, QuadTree(pts, level), level, monkeypatch)


def test_complex_symmetric_half_height_matrix_has_the_four_panel_id(monkeypatch):
    # [Re; Im] of [A[M, B]; s K[B, P]^*]: a real (2m x k) stack
    m, level = 48, 3
    pts = _jittered(m, 5)
    kernel = HelmholtzKernelMatrix(pts, 1.0 / m, 25.0, b=gaussian_bump(pts))
    assert kernel.symmetric and not kernel.hermitian
    _half_height_matches_four_panels(kernel, QuadTree(pts, level), level, monkeypatch)


def _same_decomposition(d1, d2) -> bool:
    return all(
        getattr(d1, f).shape == getattr(d2, f).shape
        and getattr(d1, f).tobytes() == getattr(d2, f).tobytes()
        for f in ("skeleton", "redundant", "T")
    )


@pytest.mark.parametrize("make", [
    lambda pts: LaplaceKernelMatrix(pts, 1.0 / 35),
    lambda pts: HelmholtzKernelMatrix(pts, 1.0 / 35, 9.0, b=gaussian_bump(pts)),
], ids=["laplace-hermitian", "helmholtz-symmetric"])
def test_compression_does_not_depend_on_the_schedule(make):
    # a box compressed alone (strict's group) and inside its colour phase
    # (batched's group), against one store, gets the same bits
    pts = np.random.default_rng(11).random((1200, 2))
    tree = QuadTree(pts, 3)
    kernel = make(pts)
    store = _leaf_store(kernel, tree)
    level = 3
    first, phase = color_phases(tree.boxes(level))[:2]
    strict, batched = SRSOptions(factor_mode="strict"), SRSOptions(factor_mode="batched")
    # eliminate one phase first, so the second one reads Schur-updated blocks
    decs = compress_phase(store, kernel, tree, level, first, batched)
    for box in first:
        eliminate_box(store, box, tree.neighbors(level, *box), decs[box], level=level)
    assert store.blocks
    alone = {box: compress_phase(store, kernel, tree, level, [box], strict)[box]
             for box in phase}
    together = compress_phase(store, kernel, tree, level, phase, batched)
    assert len(phase) > 1 and together.keys() == alone.keys()
    for box in phase:
        assert _same_decomposition(alone[box], together[box]), box


# ----------------------------------------------------------------------
# satellites: record accounting and defaults
# ----------------------------------------------------------------------
def test_box_record_memory_bytes_counts_everything(gaussian16):
    fact = srs_factor(gaussian16, opts=SRSOptions(tol=1e-8, leaf_size=16))
    rec = next(r for r in fact.records if r.redundant.size)
    expected = (
        rec.T.nbytes
        + rec.e_cr.nbytes
        + rec.g_rc.nbytes
        + rec.lu.memory_bytes()
        + rec.redundant.nbytes
        + rec.skeleton.nbytes
        + rec.cluster.nbytes
    )
    assert rec.memory_bytes() == expected
    assert rec.lu.memory_bytes() > 0


def test_box_record_cluster_segments_default():
    idx = np.arange(3)
    blk = np.zeros((3, 3))

    class _Lu:
        pass

    a = BoxRecord((0, 0), 1, idx, idx, idx, blk, _Lu(), blk, blk)
    b = BoxRecord((0, 1), 1, idx, idx, idx, blk, _Lu(), blk, blk)
    assert a.cluster_segments == []
    a.cluster_segments.append(((0, 0), 0, 3))
    assert b.cluster_segments == []  # default_factory: no shared state
