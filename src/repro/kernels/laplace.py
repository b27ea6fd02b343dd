"""2D Laplace kernel (Sec. V-A of the paper).

First-kind volume integral equation on the unit square discretized by
piecewise-constant collocation on a ``sqrt(N) x sqrt(N)`` grid:

    A[i, j] = -(h^2 / 2 pi) ln |x_i - x_j|        (i != j, Eq. 16)
    A[i, i] = Integral over the h-cell of -(1/2 pi) ln |x|   (Eq. 17)

The Green's function is ``g(x, y) = -(1/2 pi) ln|x - y|`` and the
column weight carries the quadrature weight ``h^2``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelMatrix, pairwise_distances, squared_distances
from repro.kernels.selfquad import log_square_self_integral_exact


def laplace_greens(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``-(1/2 pi) ln|x - y|`` (entries with ``x == y`` are ``+inf``)."""
    r = pairwise_distances(np.atleast_2d(x), np.atleast_2d(y))
    with np.errstate(divide="ignore"):
        return -np.log(r) / (2.0 * np.pi)


class LaplaceKernelMatrix(KernelMatrix):
    """Kernel matrix of the first-kind Laplace volume IE on a uniform grid.

    Parameters
    ----------
    points:
        Collocation points (typically :func:`repro.geometry.uniform_grid`).
    h:
        Grid spacing (``1/sqrt(N)`` on the unit square); sets the
        quadrature weight and the singular diagonal entry.
    """

    greens_vectorized = True
    symmetric = True  # rw = 1, cw = h^2, g(x, y) = g(y, x)
    hermitian = True  # and real

    def __init__(self, points: np.ndarray, h: float):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if h <= 0:
            raise ValueError(f"grid spacing must be positive, got {h}")
        self.points = points
        self.h = float(h)
        self.dtype = np.dtype(np.float64)
        # Eq. (17): cell self-integral of -(1/2 pi) ln r (no extra h^2)
        self._diag_value = -log_square_self_integral_exact(self.h) / (2.0 * np.pi)

    def greens(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return laplace_greens(x, y)

    def greens_stack(self, x, y, out=None) -> np.ndarray:
        # -(1/2 pi) ln r == -(1/4 pi) ln r^2: same function of the
        # squared distance, sparing the sqrt pass over the whole stack
        s = squared_distances(x, y, out=out)
        with np.errstate(divide="ignore"):
            np.log(s, out=s)
        np.negative(s, out=s)
        return np.divide(s, 4.0 * np.pi, out=s)

    def col_weights(self, index: np.ndarray) -> np.ndarray:
        return np.full(len(index), self.h * self.h, dtype=self.dtype)

    def diagonal(self) -> np.ndarray:
        return np.full(self.n, self._diag_value, dtype=self.dtype)

    def spawn(self, points: np.ndarray, data: dict[str, np.ndarray]) -> "LaplaceKernelMatrix":
        return LaplaceKernelMatrix(points, self.h)
