"""First-kind Laplace volume integral equation (Sec. V-A, Eq. 14).

Bundles the collocation grid, the kernel matrix and the FFT matvec.
The paper's solve protocol — factor once, then refine with PCG to a
``1e-12`` residual, reporting ``relres`` and ``nit`` (Tables II/III) —
is ``repro.solve(prob, b, method="pcg")``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.problem import ProblemBase
from repro.geometry.points import uniform_grid
from repro.kernels.laplace import LaplaceKernelMatrix
from repro.matvec.toeplitz import FFTMatVec


@dataclass
class LaplaceVolumeProblem(ProblemBase):
    """The paper's Laplace benchmark problem on an ``m x m`` grid.

    Implements the :class:`repro.api.Problem` protocol, so it runs
    through ``repro.solve``/``repro.Solver`` with any method; the
    operator is symmetric, so CG applies.
    """

    m: int
    is_symmetric = True

    def __post_init__(self) -> None:
        if self.m < 4:
            raise ValueError(f"grid side must be >= 4, got {self.m}")
        self.points = uniform_grid(self.m)
        self.h = 1.0 / self.m
        self.kernel = LaplaceKernelMatrix(self.points, self.h)
        self.matvec = FFTMatVec(self.kernel, self.m)

    @property
    def n(self) -> int:
        return self.m * self.m

    # random_rhs (standard-uniform, Table I) and relres (on the FFT
    # matvec) come from ProblemBase
