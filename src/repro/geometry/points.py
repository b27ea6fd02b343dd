"""Point-set generators for discretized integral equations.

``uniform_grid`` reproduces the paper's collocation setup: a
``sqrt(N) x sqrt(N)`` grid of cell centers on the unit square with
spacing ``h = 1/sqrt(N)``. The other generators give non-uniform
clouds, on which the perfect quadtree's leaves fill unevenly.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.domain import Square


def uniform_grid(m: int, *, domain: Square | None = None) -> np.ndarray:
    """Cell-centered ``m x m`` collocation grid (N = m^2 points).

    Point ``(i, j)`` sits at ``((i + 1/2) h, (j + 1/2) h)`` with
    ``h = size / m``; ordering is row-major in ``j`` then ``i`` —
    i.e. index ``k = i * m + j`` maps to ``x = (i+1/2)h, y = (j+1/2)h``.
    """
    if m <= 0:
        raise ValueError(f"grid side must be positive, got {m}")
    dom = domain or Square()
    h = dom.size / m
    t = (np.arange(m) + 0.5) * h
    xx, yy = np.meshgrid(t + dom.x0, t + dom.y0, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def grid_spacing(m: int, *, domain: Square | None = None) -> float:
    """Spacing ``h`` of :func:`uniform_grid`."""
    dom = domain or Square()
    return dom.size / m


def random_points(n: int, *, domain: Square | None = None, seed: int = 0) -> np.ndarray:
    """``n`` i.i.d. uniform points in the domain."""
    dom = domain or Square()
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * dom.size
    pts[:, 0] += dom.x0
    pts[:, 1] += dom.y0
    return pts


def clustered_points(
    n: int,
    *,
    n_clusters: int = 4,
    spread: float = 0.05,
    domain: Square | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Gaussian clusters clipped to the domain (non-uniform stress test)."""
    dom = domain or Square()
    rng = np.random.default_rng(seed)
    lo = np.array([dom.x0, dom.y0])
    hi = lo + dom.size
    centers = lo + (0.1 + 0.8 * rng.random((n_clusters, 2))) * dom.size
    which = rng.integers(0, n_clusters, size=n)
    pts = centers[which] + rng.normal(scale=spread * dom.size, size=(n, 2))
    eps = 1e-9 * dom.size
    return np.clip(pts, lo + eps, hi - eps)
