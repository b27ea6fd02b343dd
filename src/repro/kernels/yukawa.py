"""2D Yukawa (modified Helmholtz) kernel.

``g(r) = K0(lambda r) / (2 pi)`` — the free-space Green's function of
``(-Delta + lambda^2)``. Not part of the paper's evaluation, but a
natural additional non-oscillatory kernel: it decays exponentially, is
symmetric positive definite after discretization, and stresses the same
code paths as the Laplace kernel with a very different conditioning
profile.

Radial primitive (for the singular diagonal):
``Integral_0^R K0(lambda r) r dr = 1/lambda^2 - R K1(lambda R)/lambda``
from ``d/dr [r K1(lambda r)] = -lambda r K0(lambda r)`` and
``r K1(lambda r) -> 1/lambda``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import k0, k1

from repro.kernels.base import KernelMatrix, pairwise_distances
from repro.kernels.selfquad import square_self_integral


class YukawaKernelMatrix(KernelMatrix):
    """Second-kind volume IE matrix ``A = I + h^2 G_lambda`` on a uniform grid."""

    greens_vectorized = True
    symmetric = True  # rw = 1, cw = h^2, K0 radial
    hermitian = True  # and real

    def __init__(self, points: np.ndarray, h: float, lam: float, *, identity_shift: float = 1.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if h <= 0 or lam <= 0:
            raise ValueError("grid spacing and lambda must be positive")
        self.points = points
        self.h = float(h)
        self.lam = float(lam)
        self.identity_shift = float(identity_shift)
        self.dtype = np.dtype(np.float64)

        def primitive(radius: np.ndarray) -> np.ndarray:
            z = self.lam * np.asarray(radius, dtype=float)
            return (1.0 / self.lam**2 - radius * k1(z) / self.lam) / (2.0 * np.pi)

        self._cell_integral = float(square_self_integral(primitive, self.h).real)

    def greens(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = pairwise_distances(np.atleast_2d(x), np.atleast_2d(y))
        with np.errstate(divide="ignore", invalid="ignore"):
            return k0(self.lam * r) / (2.0 * np.pi)

    def col_weights(self, index: np.ndarray) -> np.ndarray:
        return np.full(len(index), self.h * self.h, dtype=self.dtype)

    def diagonal(self) -> np.ndarray:
        return np.full(self.n, self.identity_shift + self._cell_integral, dtype=self.dtype)

    def spawn(self, points: np.ndarray, data: dict[str, np.ndarray]) -> "YukawaKernelMatrix":
        return YukawaKernelMatrix(
            points, self.h, self.lam, identity_shift=self.identity_shift
        )
