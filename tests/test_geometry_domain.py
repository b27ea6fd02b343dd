"""Tests for repro.geometry.domain."""

import numpy as np
import pytest

from repro.geometry.domain import Square


def test_default_unit_square():
    s = Square()
    assert s.x0 == 0.0 and s.y0 == 0.0 and s.size == 1.0
    assert np.allclose(s.center, [0.5, 0.5])


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        Square(0, 0, 0.0)
    with pytest.raises(ValueError):
        Square(0, 0, -1.0)


def test_contains_boundary_points():
    s = Square(0, 0, 2.0)
    pts = np.array([[0, 0], [2, 2], [1, 1], [2.0001, 1], [-0.0001, 1]])
    mask = s.contains(pts)
    assert mask.tolist() == [True, True, True, False, False]


def test_contains_with_tolerance():
    s = Square()
    pts = np.array([[1.0 + 1e-9, 0.5]])
    assert not s.contains(pts)[0]
    assert s.contains(pts, tol=1e-6)[0]


def test_bounding_square_contains_all_points():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(100, 2)) * 3.0
    s = Square.bounding(pts)
    assert s.contains(pts).all()


def test_bounding_square_of_degenerate_cloud():
    pts = np.array([[0.3, 0.7], [0.3, 0.7]])
    s = Square.bounding(pts)
    assert s.size > 0
    assert s.contains(pts).all()
