"""Lippmann–Schwinger acoustic scattering (Sec. V-B, Eqns. 18–21).

Models a plane wave hitting a compactly supported scattering potential
``b(x)`` on the unit square. The symmetrized unknown is
``mu = sigma / sqrt(b)``; after solving, the physical density
``sigma = sqrt(b) mu`` gives the scattered and total fields (Fig. 7b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.api.problem import ProblemBase
from repro.geometry.points import uniform_grid
from repro.kernels.helmholtz import (
    HelmholtzKernelMatrix,
    gaussian_bump,
    plane_wave,
)
from repro.matvec.toeplitz import FFTMatVec


@dataclass
class ScatteringProblem(ProblemBase):
    """The paper's Helmholtz benchmark: Gaussian-bump scattering potential.

    Implements the :class:`repro.api.Problem` protocol (complex,
    non-symmetric: GMRES-family methods); the canonical rhs is the
    symmetrized plane-wave data of Eq. 18.
    """

    m: int
    kappa: float
    potential: Callable[[np.ndarray], np.ndarray] = field(default=gaussian_bump)
    direction: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self) -> None:
        if self.m < 4:
            raise ValueError(f"grid side must be >= 4, got {self.m}")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        self.points = uniform_grid(self.m)
        self.h = 1.0 / self.m
        self.b = np.asarray(self.potential(self.points), dtype=float)
        self.kernel = HelmholtzKernelMatrix(self.points, self.h, self.kappa, b=self.b)
        self.matvec = FFTMatVec(self.kernel, self.m)

    @property
    def n(self) -> int:
        return self.m * self.m

    @classmethod
    def increasing_frequency(cls, m: int, points_per_wavelength: float = 32.0) -> "ScatteringProblem":
        """Table V setup: ``kappa = pi sqrt(N) / 16`` keeps 32 points/wavelength."""
        kappa = 2.0 * np.pi * m / points_per_wavelength
        return cls(m, kappa)

    # ------------------------------------------------------------------
    def rhs(self) -> np.ndarray:
        """Symmetrized right-hand side ``-kappa^2 sqrt(b) u_in`` (Eq. 18)."""
        uin = plane_wave(self.points, self.kappa, self.direction)
        return -(self.kappa**2) * np.sqrt(self.b) * uin

    default_rhs = rhs

    # random_rhs (complex uniform, matching the kernel dtype) and
    # relres (on the FFT matvec) come from ProblemBase

    # ------------------------------------------------------------------
    def sigma_from_mu(self, mu: np.ndarray) -> np.ndarray:
        """Undo the symmetrizing change of variables."""
        return np.sqrt(self.b) * mu

    def total_field(self, mu: np.ndarray) -> np.ndarray:
        """Total field ``u = u_in + Integral K sigma`` on the grid (Fig. 7b).

        The convolution with the free-space kernel is the system
        matvec's FFT embedding at weight ``h^2``; the singular cell is
        integrated exactly.
        """
        sigma = self.sigma_from_mu(mu)
        uin = plane_wave(self.points, self.kappa, self.direction)
        return (
            uin
            + self.h**2 * self.matvec.convolve(sigma)
            + self.kernel._cell_integral * sigma
        )

    def field_magnitude_grid(self, mu: np.ndarray) -> np.ndarray:
        """``|u|`` reshaped to the grid (row-major ``(i, j)``), for plotting."""
        return np.abs(self.total_field(mu)).reshape(self.m, self.m)

    def potential_grid(self) -> np.ndarray:
        """The scattering potential on the grid (Fig. 7a)."""
        return self.b.reshape(self.m, self.m)

