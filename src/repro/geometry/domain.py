"""Square computational domains.

The paper restricts itself to planar problems on a square domain
(Omega = [0,1]^2 in the experiments); the quadtree in
:mod:`repro.tree` subdivides a :class:`Square` recursively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Square:
    """An axis-aligned square ``[x0, x0+size] x [y0, y0+size]``."""

    x0: float = 0.0
    y0: float = 0.0
    size: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.size) or self.size <= 0:
            raise ValueError(f"square size must be positive, got {self.size}")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x0 + 0.5 * self.size, self.y0 + 0.5 * self.size])

    def contains(self, points: np.ndarray, *, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of points inside the (closed) square."""
        pts = np.atleast_2d(points)
        lo_x, lo_y = self.x0 - tol, self.y0 - tol
        hi_x, hi_y = self.x0 + self.size + tol, self.y0 + self.size + tol
        return (
            (pts[:, 0] >= lo_x)
            & (pts[:, 0] <= hi_x)
            & (pts[:, 1] >= lo_y)
            & (pts[:, 1] <= hi_y)
        )

    @classmethod
    def bounding(cls, points: np.ndarray, *, pad: float = 1e-12) -> "Square":
        """Smallest padded square containing all points."""
        pts = np.atleast_2d(points)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        size = float(max(hi[0] - lo[0], hi[1] - lo[1]))
        size = max(size, pad) * (1.0 + pad)
        return cls(float(lo[0]), float(lo[1]), size)
