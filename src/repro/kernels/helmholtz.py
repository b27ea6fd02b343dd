"""2D Helmholtz / Lippmann–Schwinger kernel (Sec. V-B of the paper).

The symmetrized Lippmann–Schwinger equation (Eq. 18 with
``mu = sigma / sqrt(b)``) discretized by piecewise-constant collocation
gives the complex symmetric system

    A[i, j] = h^2 kappa^2 sqrt(b_i b_j) * (i/4) H0^(1)(kappa |x_i - x_j|)   (Eq. 20)
    A[i, i] = 1 + kappa^2 b_i * Integral over h-cell of (i/4) H0^(1)(kappa |x|)  (Eq. 21)

The Green's function is ``g = (i/4) H0^(1)(kappa r)`` and both row and
column weights are ``kappa h sqrt(b)`` (their product restores
``h^2 kappa^2 sqrt(b_i b_j)``).

The singular diagonal uses the closed-form radial primitive

    Integral_0^R H0(kappa r) r dr = R H1(kappa R)/kappa + 2i/(pi kappa^2),

which follows from ``d/dz [z H1(z)] = z H0(z)`` and
``z H1^(1)(z) -> -2i/pi`` as ``z -> 0``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import hankel1, j0, y0

from repro.kernels.base import KernelMatrix, pairwise_distances
from repro.kernels.selfquad import square_self_integral


def helmholtz_greens(x: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """``(i/4) H0^(1)(kappa |x - y|)`` (coincident entries are ``nan + nanj``).

    For real argument ``H0^(1) = J0 + i Y0``: the two real Bessel calls
    cost a fifth of AMOS ``hankel1`` at the same absolute accuracy (max
    ``|error|`` of ``H0`` 1.4e-15 against ``hankel1``'s 9e-16, 30-digit
    ``mpmath``, ``kappa r`` in [1e-3, 1e3]: ``tests/test_kernel_contracts.py``).
    """
    z = kappa * pairwise_distances(np.atleast_2d(x), np.atleast_2d(y))
    z[z == 0.0] = np.nan  # not y0(0) = -inf: every part non-finite, as hankel1 gave
    g = 0.25j * j0(z)
    g -= 0.25 * y0(z)
    return g


def hankel_cell_self_integral(kappa: float, h: float, *, order: int = 64) -> complex:
    """``Integral of (i/4) H0^(1)(kappa |x|)`` over ``[-h/2, h/2]^2``."""

    def primitive(radius: np.ndarray) -> np.ndarray:
        z = kappa * np.asarray(radius, dtype=float)
        return 0.25j * (radius * hankel1(1, z) / kappa + 2.0j / (np.pi * kappa**2))

    return square_self_integral(primitive, h, order=order)


def plane_wave(points: np.ndarray, kappa: float, direction=(1.0, 0.0)) -> np.ndarray:
    """Incident plane wave ``exp(i kappa d . x)`` (paper: traveling right)."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    phase = kappa * (points @ d)
    return np.exp(1j * phase)


def gaussian_bump(points: np.ndarray, *, center=(0.5, 0.5), sharpness: float = 32.0) -> np.ndarray:
    """The paper's scattering potential ``b(x) = exp(-32 |x - c|^2)`` (Fig. 7a)."""
    pts = np.atleast_2d(points)
    d2 = (pts[:, 0] - center[0]) ** 2 + (pts[:, 1] - center[1]) ** 2
    return np.exp(-sharpness * d2)


class HelmholtzKernelMatrix(KernelMatrix):
    """Kernel matrix of the symmetrized Lippmann–Schwinger equation.

    Parameters
    ----------
    points:
        Collocation grid points.
    h:
        Grid spacing.
    kappa:
        Wave number of the incoming wave.
    b:
        Scattering potential values ``b(x_i)`` in ``(0, 1]``; defaults
        to all-ones (constant-coefficient Helmholtz).
    """

    greens_vectorized = True
    symmetric = True  # rw = cw, g(x, y) = g(y, x); complex, so not Hermitian

    def __init__(
        self,
        points: np.ndarray,
        h: float,
        kappa: float,
        *,
        b: np.ndarray | Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if h <= 0:
            raise ValueError(f"grid spacing must be positive, got {h}")
        if kappa <= 0:
            raise ValueError(f"wave number must be positive, got {kappa}")
        self.points = points
        self.h = float(h)
        self.kappa = float(kappa)
        if b is None:
            bvals = np.ones(points.shape[0])
        elif callable(b):
            bvals = np.asarray(b(points), dtype=float)
        else:
            bvals = np.asarray(b, dtype=float)
        if bvals.shape != (points.shape[0],):
            raise ValueError(f"b must have shape ({points.shape[0]},), got {bvals.shape}")
        if np.any(bvals <= 0) or np.any(bvals > 1 + 1e-12):
            raise ValueError("scattering potential must satisfy 0 < b(x) <= 1")
        self.b = bvals
        self.dtype = np.dtype(np.complex128)
        self._sqrt_b = np.sqrt(bvals)
        self._cell_integral = hankel_cell_self_integral(self.kappa, self.h)

    def greens(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return helmholtz_greens(x, y, self.kappa)

    def greens_stack(self, x, y, out=None) -> np.ndarray:
        # helmholtz_greens written into ``out``: J0 into the imaginary
        # part, Y0 into the real part, each scaled by its +-1/4 (the same
        # bits, NaN self entries included), instead of complex temporaries
        if out is None:
            return self.greens(x, y)
        z = pairwise_distances(x, y)
        np.multiply(z, self.kappa, out=z)
        z[z == 0.0] = np.nan
        j0(z, out=out.imag)
        y0(z, out=out.real)
        out.imag *= 0.25
        out.real *= -0.25
        return out

    def row_weights(self, index: np.ndarray) -> np.ndarray:
        return (self.kappa * self.h * self._sqrt_b[index]).astype(self.dtype)

    def col_weights(self, index: np.ndarray) -> np.ndarray:
        return (self.kappa * self.h * self._sqrt_b[index]).astype(self.dtype)

    def diagonal(self) -> np.ndarray:
        return (1.0 + self.kappa**2 * self.b * self._cell_integral).astype(self.dtype)

    def points_per_wavelength(self) -> float:
        """Grid points per wavelength ``2 pi / (kappa h)``."""
        return 2.0 * np.pi / (self.kappa * self.h)

    def per_point_data(self, index: np.ndarray) -> dict[str, np.ndarray]:
        return {"b": self.b[np.asarray(index, dtype=np.int64)]}

    def spawn(self, points: np.ndarray, data: dict[str, np.ndarray]) -> "HelmholtzKernelMatrix":
        return HelmholtzKernelMatrix(points, self.h, self.kappa, b=data["b"])
