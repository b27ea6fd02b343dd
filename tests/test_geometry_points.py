"""Tests for repro.geometry.points."""

import numpy as np
import pytest

from repro.geometry.domain import Square
from repro.geometry.points import (
    clustered_points,
    grid_spacing,
    random_points,
    uniform_grid,
)


def test_uniform_grid_shape_and_spacing():
    pts = uniform_grid(8)
    assert pts.shape == (64, 2)
    h = grid_spacing(8)
    assert h == pytest.approx(1.0 / 8)
    # first point is the center of the first cell
    assert np.allclose(pts[0], [h / 2, h / 2])
    # ordering: index k = i*m + j -> y varies fastest
    assert np.allclose(pts[1], [h / 2, 3 * h / 2])


def test_uniform_grid_covers_domain_interior():
    pts = uniform_grid(5)
    assert pts.min() > 0 and pts.max() < 1


def test_uniform_grid_custom_domain():
    dom = Square(2.0, 3.0, 4.0)
    pts = uniform_grid(4, domain=dom)
    assert dom.contains(pts).all()
    assert pts[:, 0].min() == pytest.approx(2.5)


def test_uniform_grid_rejects_bad_side():
    with pytest.raises(ValueError):
        uniform_grid(0)


def test_random_points_inside_domain_and_reproducible():
    a = random_points(50, seed=7)
    b = random_points(50, seed=7)
    assert np.array_equal(a, b)
    assert Square().contains(a).all()


def test_clustered_points_inside_domain():
    pts = clustered_points(200, n_clusters=3, seed=1)
    assert Square().contains(pts).all()
    assert pts.shape == (200, 2)
