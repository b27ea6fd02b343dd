"""High-level boundary-integral solvers with analytic validation.

Two drivers, mirroring the volume apps in :mod:`repro.apps`:

* :class:`InteriorDirichletProblem` — interior Laplace Dirichlet via the
  second-kind double-layer ansatz ``u = D tau``,
  ``(-1/2 I + D) tau = f``; validated against harmonic test solutions.
* :class:`SoundSoftScattering` — exterior Helmholtz Dirichlet (sound-soft
  obstacle) via the combined-field ansatz ``u_s = (D - i eta S) sigma``,
  ``(1/2 I + D - i eta S) sigma = g``; validated against the field of a
  point source placed inside the obstacle.

Both build a quadtree from the curve's bounding box; ``repro.solve``
runs them directly with the RS-S factorization (``method="direct"``) or
iteratively with (RS-S preconditioned) GMRES (``method="pgmres"``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.api.facade import solve
from repro.api.problem import ProblemBase
from repro.bie.curves import Curve
from repro.bie.layers import HelmholtzCFIE, LaplaceDLP
from repro.core.factorization import SRSFactorization
from repro.core.options import SRSOptions
from repro.geometry.domain import Square
from repro.kernels.base import dense_matrix
from repro.kernels.helmholtz import helmholtz_greens, plane_wave
from repro.tree.quadtree import QuadTree


# ----------------------------------------------------------------------
# analytic reference solutions
# ----------------------------------------------------------------------
def harmonic_polynomial(points: np.ndarray, degree: int = 3) -> np.ndarray:
    """``Re((x + i y)^degree)`` — a harmonic polynomial."""
    pts = np.atleast_2d(points)
    z = pts[:, 0] + 1j * pts[:, 1]
    return (z**degree).real


def harmonic_exponential(points: np.ndarray) -> np.ndarray:
    """``Re(exp(x + i y)) = e^x cos y`` — an entire harmonic function."""
    pts = np.atleast_2d(points)
    return np.exp(pts[:, 0]) * np.cos(pts[:, 1])


def point_source_field(targets: np.ndarray, source, kappa: float) -> np.ndarray:
    """Radiating Helmholtz point source ``(i/4) H0^(1)(kappa |x - s|)``."""
    src = np.asarray(source, dtype=float).reshape(1, 2)
    return helmholtz_greens(np.atleast_2d(targets), src, kappa)[:, 0]


#: factorization options of the validation solves when no ``fact`` is
#: handed in: second-kind operators track the ID tolerance closely
_DEFAULT_SRS = SRSOptions(tol=1e-10)


# ----------------------------------------------------------------------
class _BoundaryProblem(ProblemBase):
    """Shared plumbing: discretization, tree, factorization, operator.

    Implements the :class:`repro.api.Problem` protocol: the
    factorization tree is the curve's bounding-box quadtree and the
    distributed engines root their trees on the same bounding square.
    """

    def __init__(self, curve: Curve, n: int, *, leaf_size: int = 64):
        self.curve = curve
        self.n = int(n)
        self.bd = curve.discretize(self.n)
        self.leaf_size = int(leaf_size)
        self.kernel = self._build_kernel()
        self.tree = QuadTree.for_leaf_size(self.bd.points, self.leaf_size)
        self.kernel.check_tree_resolution(self.tree)  # fail at construction

    def _build_kernel(self):
        raise NotImplementedError

    @property
    def parallel_domain(self) -> Square:
        return Square.bounding(self.bd.points)

    def dense(self) -> np.ndarray:
        """Full Nystrom matrix (small problems / reference only)."""
        return dense_matrix(self.kernel)

    def operator(self) -> Callable[[np.ndarray], np.ndarray]:
        """``x -> A x`` on the Nystrom matrix assembled by this call.

        Only the returned callable holds the matrix, so a Krylov solve
        assembles once and a cached problem holds no ``N x N`` array.
        """
        return self.dense().__matmul__

    # relres (one assembly, via operator()) comes from ProblemBase

    def _shifted_targets(self, factor: float, k: int) -> np.ndarray:
        """Curve scaled about its centroid — inside (<1) or outside (>1)."""
        t = 2.0 * np.pi * (np.arange(k) + 0.37) / k
        c = self.curve.interior_point()
        return c + factor * (self.curve.point(t) - c)


class InteriorDirichletProblem(_BoundaryProblem):
    """Interior Laplace Dirichlet problem ``(-1/2 I + D) tau = f``.

    Parameters
    ----------
    curve:
        The (counterclockwise, smooth) boundary.
    n:
        Number of Nystrom nodes.
    """

    def _build_kernel(self) -> LaplaceDLP:
        return LaplaceDLP(self.bd, identity=-0.5)

    def boundary_data(self, u_exact) -> np.ndarray:
        """Dirichlet data ``f = u_exact`` sampled on the nodes."""
        return np.asarray(u_exact(self.bd.points), dtype=float)

    def default_rhs(self) -> np.ndarray:
        """Canonical validation rhs: the entire harmonic ``e^x cos y``."""
        return self.boundary_data(harmonic_exponential)

    def evaluate(self, tau: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The solution ``u = D tau`` at interior targets."""
        return self.kernel.potential(targets, tau)

    def interior_targets(self, k: int = 24, shrink: float = 0.5) -> np.ndarray:
        """``k`` evaluation points well inside the curve."""
        if not (0 < shrink < 1):
            raise ValueError(f"shrink must be in (0, 1), got {shrink}")
        return self._shifted_targets(shrink, k)

    def solve_error(
        self,
        u_exact,
        fact: SRSFactorization | None = None,
        *,
        targets: np.ndarray | None = None,
    ) -> float:
        """Relative max-norm error of the RS-S direct solve vs ``u_exact``."""
        f = self.boundary_data(u_exact)
        tau = solve(self, f, srs=_DEFAULT_SRS, factorization=fact).x
        tgt = self.interior_targets() if targets is None else targets
        u = self.evaluate(tau, tgt)
        ref = np.asarray(u_exact(tgt), dtype=float)
        return float(np.max(np.abs(u - ref)) / np.max(np.abs(ref)))


class SoundSoftScattering(_BoundaryProblem):
    """Exterior sound-soft Helmholtz scattering via the CFIE.

    Parameters
    ----------
    curve:
        The obstacle boundary.
    n:
        Number of Nystrom nodes (keep several points per wavelength:
        ``n >= ~10 kappa * radius``).
    kappa:
        Wave number.
    eta:
        CFIE coupling (defaults to ``kappa``).
    kr_order:
        Kapur--Rokhlin correction order for the log-singular kernels.
    """

    def __init__(
        self,
        curve: Curve,
        n: int,
        kappa: float,
        *,
        eta: float | None = None,
        kr_order: int = 6,
        leaf_size: int = 64,
    ):
        self.kappa = float(kappa)
        self.eta = eta
        self.kr_order = int(kr_order)
        super().__init__(curve, n, leaf_size=leaf_size)

    def _build_kernel(self) -> HelmholtzCFIE:
        return HelmholtzCFIE(
            self.bd, self.kappa, eta=self.eta, identity=0.5, kr_order=self.kr_order
        )

    # -- right-hand sides ----------------------------------------------
    def rhs_plane_wave(self, direction=(1.0, 0.0)) -> np.ndarray:
        """Sound-soft data ``g = -u_inc`` on the boundary."""
        return -plane_wave(self.bd.points, self.kappa, direction)

    def rhs_point_source(self, source=None) -> np.ndarray:
        """Boundary trace of an interior point source (validation setup).

        The solve must then reproduce the point-source field at every
        exterior target (the scattered field *is* the source field).
        """
        src = self.curve.interior_point() if source is None else source
        return point_source_field(self.bd.points, src, self.kappa)

    def default_rhs(self) -> np.ndarray:
        """Canonical rhs: sound-soft data of the unit-direction plane wave."""
        return self.rhs_plane_wave()

    # -- fields ----------------------------------------------------------
    def scattered_field(self, sigma: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """``u_s = (D - i eta S) sigma`` at exterior targets."""
        return self.kernel.potential(targets, sigma)

    def total_field(
        self, sigma: np.ndarray, targets: np.ndarray, direction=(1.0, 0.0)
    ) -> np.ndarray:
        return plane_wave(targets, self.kappa, direction) + self.scattered_field(
            sigma, targets
        )

    def exterior_targets(self, k: int = 24, expand: float = 1.8) -> np.ndarray:
        """``k`` evaluation points outside the obstacle."""
        if expand <= 1:
            raise ValueError(f"expand must be > 1, got {expand}")
        return self._shifted_targets(expand, k)

    def point_source_error(
        self, fact: SRSFactorization | None = None, *, source=None
    ) -> float:
        """Relative error of the direct CFIE solve vs an interior source."""
        src = self.curve.interior_point() if source is None else source
        g = self.rhs_point_source(src)
        sigma = solve(self, g, srs=_DEFAULT_SRS, factorization=fact).x
        tgt = self.exterior_targets()
        u = self.scattered_field(sigma, tgt)
        ref = point_source_field(tgt, src, self.kappa)
        return float(np.max(np.abs(u - ref)) / np.max(np.abs(ref)))
