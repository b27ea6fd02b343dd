"""Tests for the interpolative decomposition, incl. hypothesis contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg import interp_decomp
from repro.linalg.interpolative import id_error, interp_decomp_stack


def low_rank_matrix(m, n, r, seed, complex_=False):
    rng = np.random.default_rng(seed)
    if complex_:
        left = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        right = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        return left @ right
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def test_exact_rank_recovery():
    a = low_rank_matrix(50, 30, 7, 0)
    dec = interp_decomp(a, 1e-12)
    assert dec.rank == 7
    assert id_error(a, dec) < 1e-10


def test_partition_of_columns():
    a = low_rank_matrix(40, 25, 5, 1)
    dec = interp_decomp(a, 1e-10)
    merged = np.sort(np.concatenate([dec.skeleton, dec.redundant]))
    assert np.array_equal(merged, np.arange(25))


def test_reconstruct_matches(rng):
    a = low_rank_matrix(30, 20, 4, 2)
    dec = interp_decomp(a, 1e-12)
    assert np.allclose(dec.reconstruct(a), a, atol=1e-9)


def test_complex_matrix():
    a = low_rank_matrix(40, 30, 6, 3, complex_=True)
    dec = interp_decomp(a, 1e-12)
    assert dec.rank == 6
    assert id_error(a, dec) < 1e-10


def test_zero_rows_all_redundant():
    a = np.zeros((0, 12))
    dec = interp_decomp(a, 1e-6)
    assert dec.rank == 0
    assert dec.redundant.size == 12
    assert dec.T.shape == (0, 12)


def test_zero_matrix_all_redundant():
    dec = interp_decomp(np.zeros((8, 5)), 1e-6)
    assert dec.rank == 0


def test_zero_columns():
    dec = interp_decomp(np.zeros((8, 0)), 1e-6)
    assert dec.rank == 0 and dec.redundant.size == 0


def test_full_rank_keeps_everything():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((20, 10))
    dec = interp_decomp(a, 1e-14)
    assert dec.rank == 10
    assert dec.redundant.size == 0
    assert dec.T.shape == (10, 0)


def test_tolerance_monotonicity():
    rng = np.random.default_rng(6)
    # geometric singular value decay
    u, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    v, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    s = np.zeros((40, 30))
    np.fill_diagonal(s, 10.0 ** -np.arange(30))
    a = u @ s @ v.T
    ranks = [interp_decomp(a, tol).rank for tol in (1e-3, 1e-6, 1e-9)]
    assert ranks[0] < ranks[1] < ranks[2]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stack_of_one_is_the_scalar_id_bitwise(complex_):
    # the strict sweep compresses one-box groups: its IDs are interp_decomp's
    a = low_rank_matrix(60, 20, 6, 8, complex_=complex_)
    (got,) = interp_decomp_stack(a[None], 1e-10)
    want = interp_decomp(a, 1e-10)
    for field in ("skeleton", "redundant", "T"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("shape", [(2, 1, 3), (2, 4, 1), (2, 3, 3)])
def test_stack_is_left_untouched(shape):
    # a one-row or one-column member is C- and F-contiguous at once:
    # factoring it must still happen on a copy
    stack = np.random.default_rng(4).standard_normal(shape)
    before = stack.copy()
    decs = interp_decomp_stack(stack, 1e-8)
    assert np.array_equal(stack, before)
    for member, dec in zip(stack, decs):
        want = interp_decomp(member, 1e-8)
        assert np.array_equal(dec.skeleton, want.skeleton)
        assert np.array_equal(dec.T, want.T)


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (30, 12), (12, 30)])
def test_interp_decomp_leaves_its_input_untouched(shape):
    a = np.random.default_rng(6).standard_normal(shape)
    before = a.copy()
    interp_decomp(a, 1e-8)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        interp_decomp(a, 1e-6)


def test_negative_tol_rejected():
    with pytest.raises(ValueError):
        interp_decomp(np.eye(3), -1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_id_error_contract(m, n, r, seed):
    """||A[:,R] - A[:,S] T|| <= c * tol * ||A|| for generated low-rank A."""
    a = low_rank_matrix(m, n, min(r, m, n), seed)
    tol = 1e-8
    dec = interp_decomp(a, tol)
    # CPQR ID guarantee is within a modest polynomial factor of tol
    assert id_error(a, dec) <= 1e4 * tol + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=10_000),
)
def test_skeleton_redundant_partition_property(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    dec = interp_decomp(a, 1e-6)
    assert set(dec.skeleton.tolist()).isdisjoint(dec.redundant.tolist())
    assert dec.skeleton.size + dec.redundant.size == n
    assert dec.T.shape == (dec.skeleton.size, dec.redundant.size)
