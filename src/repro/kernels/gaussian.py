"""Smooth Gaussian test kernel.

``g(r) = exp(-r^2 / (2 sigma^2))`` has no singularity, so exact dense
reference computations are trivial — used throughout the test suite to
validate the factorization machinery independently of singular
quadrature concerns. An identity shift keeps the matrix well
conditioned.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelMatrix, pairwise_distances, squared_distances


class GaussianKernelMatrix(KernelMatrix):
    """``A = shift * I + h^2 * exp(-r^2 / (2 sigma^2))`` on any planar cloud."""

    greens_vectorized = True
    symmetric = True  # rw = 1, cw = h^2, g radial
    hermitian = True  # and real

    def __init__(self, points: np.ndarray, h: float, *, sigma: float = 0.1, shift: float = 1.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if h <= 0 or sigma <= 0:
            raise ValueError("h and sigma must be positive")
        self.points = points
        self.h = float(h)
        self.sigma = float(sigma)
        self.shift = float(shift)
        self.dtype = np.dtype(np.float64)

    def greens(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = pairwise_distances(np.atleast_2d(x), np.atleast_2d(y))
        return np.exp(-(r**2) / (2.0 * self.sigma**2))

    def greens_stack(self, x, y, out=None) -> np.ndarray:
        # g is radial in r^2 already: skip the sqrt/re-square round trip
        s = squared_distances(x, y, out=out)
        np.negative(s, out=s)
        np.divide(s, 2.0 * self.sigma**2, out=s)
        return np.exp(s, out=s)

    def col_weights(self, index: np.ndarray) -> np.ndarray:
        return np.full(len(index), self.h * self.h, dtype=self.dtype)

    def diagonal(self) -> np.ndarray:
        # g(0) = 1 contributes h^2 on the diagonal plus the identity shift
        return np.full(self.n, self.shift + self.h * self.h, dtype=self.dtype)

    def spawn(self, points: np.ndarray, data: dict[str, np.ndarray]) -> "GaussianKernelMatrix":
        return GaussianKernelMatrix(points, self.h, sigma=self.sigma, shift=self.shift)
