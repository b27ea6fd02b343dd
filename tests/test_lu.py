"""Tests for the partial-LU wrapper used to eliminate X_RR."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from repro.linalg import PartialLU


@pytest.fixture
def matrix():
    rng = np.random.default_rng(11)
    return rng.standard_normal((12, 12)) + 12 * np.eye(12)


def test_solve_left(matrix):
    lu = PartialLU(matrix)
    rng = np.random.default_rng(1)
    b = rng.standard_normal((12, 3))
    assert np.allclose(matrix @ lu.solve_left(b), b)


def test_half_solves_compose_to_full(matrix):
    """U^{-1} L^{-1} P v == X^{-1} v."""
    lu = PartialLU(matrix)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(12)
    composed = lu.apply_upper_inverse(lu.apply_lower_inverse(v))
    assert np.allclose(composed, np.linalg.solve(matrix, v))


def test_lower_inverse_is_unit_triangular_action(matrix):
    """L^{-1} P applied to the matrix's own columns gives U."""
    lu = PartialLU(matrix)
    u = np.column_stack([lu.apply_lower_inverse(matrix[:, j]) for j in range(12)])
    assert np.allclose(np.tril(u, -1), 0.0, atol=1e-10)


def test_complex_support():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 6 * np.eye(6)
    lu = PartialLU(a)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.allclose(a @ lu.solve_left(b), b)


def test_empty_block():
    lu = PartialLU(np.zeros((0, 0)))
    v = np.zeros((0, 2))
    assert lu.solve_left(v).shape == (0, 2)
    assert lu.apply_lower_inverse(np.zeros(0)).shape == (0,)


def test_requires_square():
    with pytest.raises(ValueError):
        PartialLU(np.zeros((3, 4)))


def test_pivoting_matters():
    """A matrix needing pivoting is still solved accurately."""
    a = np.array([[1e-14, 1.0], [1.0, 1.0]])
    lu = PartialLU(a)
    b = np.array([1.0, 2.0])
    assert np.allclose(a @ lu.solve_left(b), b, atol=1e-12)


def _block(n: int, complex_: bool) -> np.ndarray:
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    # well conditioned, and the shuffled rows make getrf really pivot
    return (a + n * np.eye(n))[rng.permutation(n)]


def _rhs(kind: str, n: int, complex_: bool) -> np.ndarray:
    rng = np.random.default_rng(7)

    def draw(*shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if complex_ else out

    if kind == "vector":
        return draw(n)
    if kind == "block":
        return draw(n, 5)
    if kind == "fortran":
        return np.asfortranarray(draw(n, 5))
    return draw(2 * n, 10)[::2, ::2]  # a view that is contiguous in no order


@pytest.mark.parametrize("kind", ["vector", "block", "fortran", "strided"])
@pytest.mark.parametrize("n", [0, 1, 7, 64])
@pytest.mark.parametrize(
    "block_complex,rhs_complex", [(False, False), (True, True), (False, True)]
)
def test_applications_equal_the_scipy_reference(block_complex, rhs_complex, n, kind):
    """The contract of the three inverse applications, not their implementation.

    Each equals the scipy call on the same packed factors and pivots
    (bitwise in real arithmetic), leaves its input and the factors
    untouched, and accepts any memory layout — including a complex
    right-hand side on a real block.
    """
    lu = PartialLU(_block(n, block_complex))
    b = _rhs(kind, n, rhs_complex)
    b0, piv0, perm0 = b.copy(), lu._piv.copy(), lu._perm.copy()
    lu0 = lu._lu.copy(order="K")  # Fortran order kept: the same LAPACK call, not its transpose

    got = {
        "solve_left": lu.solve_left(b),
        "apply_lower_inverse": lu.apply_lower_inverse(b),
        "apply_upper_inverse": lu.apply_upper_inverse(b),
    }
    if n:
        perm = np.arange(n)
        for i, p in enumerate(piv0):  # the LAPACK row swaps, replayed
            perm[[i, p]] = perm[[p, i]]
        want = {
            "solve_left": scipy.linalg.lu_solve((lu0, piv0.copy()), b),
            "apply_lower_inverse": scipy.linalg.solve_triangular(
                lu0, b[perm], lower=True, unit_diagonal=True
            ),
            "apply_upper_inverse": scipy.linalg.solve_triangular(lu0, b, lower=False),
        }
    else:
        want = {name: b for name in got}
    for name, x in got.items():
        assert x.shape == b.shape, name
        assert x.dtype == np.result_type(lu.dtype, b.dtype), name
        if block_complex or rhs_complex:
            np.testing.assert_allclose(x, want[name], rtol=1e-13, atol=0, err_msg=name)
        else:
            np.testing.assert_array_equal(x, want[name], err_msg=name)
        assert not np.shares_memory(x, b), name

    np.testing.assert_array_equal(b, b0)
    assert lu._lu.tobytes("A") == lu0.tobytes("A")
    assert lu._piv.tobytes() == piv0.tobytes()
    assert lu._perm.tobytes() == perm0.tobytes()
    assert lu._perm.dtype == np.int32
    assert lu.memory_bytes() == lu0.nbytes + piv0.nbytes + perm0.nbytes


@pytest.mark.parametrize("complex_", [False, True])
def test_singular_upper_factor_raises_from_every_application(complex_):
    a = _block(7, complex_)
    a[:, 3] = 0.0  # an exact zero lands on U's diagonal
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = PartialLU(a)
    assert not lu._lu.diagonal().all()
    b = _rhs("block", 7, complex_)
    for apply in (lu.solve_left, lu.apply_lower_inverse, lu.apply_upper_inverse):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            apply(b)


def test_wrong_row_count_is_a_value_error(matrix):
    """LAPACK would only print an XERBLA line and return: check before it."""
    lu = PartialLU(matrix)
    for apply in (lu.solve_left, lu.apply_lower_inverse, lu.apply_upper_inverse):
        with pytest.raises(ValueError, match="rows"):
            apply(np.zeros(11))


def test_concurrent_solves_share_one_factorization():
    """Threads solving on one cached ``PartialLU`` must not see each other.

    Nothing reachable from a solve may write to the object: when the
    pivots went to scipy's getrs wrapper, which shifts them in place
    around the LAPACK call, two threads corrupted each other's solves
    and left the pivots off by one for every later solve.
    """
    import sys
    import threading

    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    lu = PartialLU(a)
    piv0 = lu._piv.copy()
    b_left = rng.standard_normal((40, 3))
    want_left = lu.solve_left(b_left)
    want_lower = lu.apply_lower_inverse(b_left)

    wrong = []
    start = threading.Barrier(3)

    def hammer():
        start.wait()
        bad = 0
        for _ in range(4000):
            bad += not np.array_equal(lu.solve_left(b_left), want_left)
            bad += not np.array_equal(lu.apply_lower_inverse(b_left), want_lower)
        wrong.append(bad)

    threads = [threading.Thread(target=hammer) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0, 0, 0]
    assert np.array_equal(lu._piv, piv0)
