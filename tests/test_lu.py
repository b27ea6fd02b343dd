"""Tests for the partial-LU wrapper used to eliminate X_RR."""

import numpy as np
import pytest

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


def test_solve_right(matrix):
    lu = PartialLU(matrix)
    rng = np.random.default_rng(2)
    b = rng.standard_normal((5, 12))
    assert np.allclose(lu.solve_right(b) @ matrix, b)


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


def test_concurrent_solves_share_one_factorization():
    """Threads solving on one cached ``PartialLU`` must not see each other.

    scipy's getrs wrapper shifts the pivot array it is given in place
    around the LAPACK call; handing it the shared ``_piv`` let two
    threads corrupt each other's solves and leave the pivots off by one
    for every later solve.
    """
    import sys
    import threading

    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    lu = PartialLU(a)
    piv0 = lu._piv.copy()
    b_left = rng.standard_normal((40, 3))
    b_right = rng.standard_normal((3, 40))
    want_left = lu.solve_left(b_left)
    want_right = lu.solve_right(b_right)

    wrong = []
    start = threading.Barrier(3)

    def hammer():
        start.wait()
        bad = 0
        for _ in range(4000):
            bad += not np.array_equal(lu.solve_left(b_left), want_left)
            bad += not np.array_equal(lu.solve_right(b_right), want_right)
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
