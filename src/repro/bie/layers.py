"""Layer-potential Nystrom matrices over closed-curve discretizations.

Single/double-layer operators for Laplace and Helmholtz (plus the
combined-field operator ``D - i eta S``) as
:class:`~repro.kernels.base.KernelMatrix` subclasses, so they plug
unchanged into ``srs_factor`` and GMRES.

The ``KernelMatrix`` contract is bent in two places, both documented in
the base-class docstring below:

* ``greens(x, y)`` returns the *monopole* Green's function of the
  underlying PDE rather than the (direction-dependent) layer kernel.
  The factorization only calls ``greens`` on artificial point pairs
  (proxy circles), where a monopole basis is exactly
  what is wanted: fields radiated by curve sources satisfy the PDE away
  from the curve, so monopoles on a separating circle span them.
* ``block`` / ``proxy_row_block`` are overridden to evaluate the true
  layer kernel (with the stored source normals) and, for log-singular
  kernels, the Kapur--Rokhlin weight corrections near the diagonal.

Locality caveat: the Kapur--Rokhlin corrections perturb entries within
``kr_order`` nodes of the diagonal *along the curve*. The proxy
representation assumes entries between well-separated boxes are pure
kernel evaluations, so a quadtree used with these matrices must have
leaf boxes wider than the corrected band; :meth:`check_tree_resolution`
verifies this (it holds for any reasonable discretization).
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.special import hankel1

from repro.bie.curves import BoundaryDiscretization
from repro.bie.quadrature import kr_weight_factors
from repro.kernels.base import KernelMatrix
from repro.kernels.helmholtz import helmholtz_greens
from repro.kernels.laplace import laplace_greens
from repro.tree.quadtree import QuadTree


# ----------------------------------------------------------------------
# raw layer kernels (targets x, sources y with unit normals ny)
# ----------------------------------------------------------------------
def laplace_slp_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Laplace single layer ``-(1/2 pi) ln|x - y|``."""
    return laplace_greens(x, y)


def laplace_dlp_kernel(x: np.ndarray, y: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """Laplace double layer ``(1/2 pi) (x - y) . n(y) / |x - y|^2``.

    Smooth on a smooth curve with diagonal limit ``-kappa(y) / (4 pi)``.
    """
    dx = x[:, 0][:, None] - y[None, :, 0]
    dy = x[:, 1][:, None] - y[None, :, 1]
    r2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        return (dx * ny[None, :, 0] + dy * ny[None, :, 1]) / (2.0 * np.pi * r2)


def helmholtz_slp_kernel(x: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """Helmholtz single layer ``(i/4) H0^(1)(kappa |x - y|)``."""
    return helmholtz_greens(x, y, kappa)


def helmholtz_dlp_kernel(
    x: np.ndarray, y: np.ndarray, ny: np.ndarray, kappa: float
) -> np.ndarray:
    """Helmholtz double layer ``(i kappa / 4) H1^(1)(kappa r) (x - y) . n(y) / r``."""
    dx = x[:, 0][:, None] - y[None, :, 0]
    dy = x[:, 1][:, None] - y[None, :, 1]
    r = np.sqrt(dx * dx + dy * dy)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            0.25j
            * kappa
            * hankel1(1, kappa * r)
            * (dx * ny[None, :, 0] + dy * ny[None, :, 1])
            / r
        )


# ----------------------------------------------------------------------
# Nystrom kernel matrices
# ----------------------------------------------------------------------
class BoundaryKernelMatrix(KernelMatrix):
    """Nystrom matrix ``identity * I + K`` of a layer operator on a curve.

    Parameters
    ----------
    bd:
        The curve discretization (nodes, normals, arc-length weights).
    identity:
        Coefficient of the identity added on the diagonal — the
        second-kind jump term (e.g. ``-1/2`` for the interior Dirichlet
        double layer, ``+1/2`` for the exterior combined field).
    kr_order:
        Kapur--Rokhlin correction order (2, 6 or 10) for log-singular
        kernels, or ``None`` for smooth kernels whose diagonal is the
        analytic limit supplied by :meth:`kernel_diagonal_limit`.
    """

    def __init__(self, bd: BoundaryDiscretization, *, identity=0.0, kr_order: int | None = None):
        self.bd = bd
        self.points = bd.points
        self.identity = identity
        self.kr_order = kr_order
        # distributed support: a spawned (rank-local) instance covers a
        # subset of the curve nodes; ``gids`` maps local rows to global
        # parameter indices so the Kapur--Rokhlin band (defined by
        # periodic distance of *global* indices) stays correct, and
        # ``n_global`` is the full discretization size.
        self.gids = np.arange(bd.n, dtype=np.int64)
        self.n_global = bd.n
        # full-curve node spacing, captured before any spawn: a subset's
        # bd can underestimate it (its speed.max() misses excluded arcs)
        self.max_node_spacing = bd.max_spacing()
        if kr_order is not None:
            # validates the order and the node count up front
            kr_weight_factors(np.arange(1), np.arange(1), bd.n, kr_order)

    # -- subclass hooks -------------------------------------------------
    def layer_greens(self, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """True layer kernel from source nodes ``cols`` to targets ``x``."""
        raise NotImplementedError

    def kernel_diagonal_limit(self) -> np.ndarray:
        """Diagonal limit ``K(x_i, x_i)`` for smooth kernels (``kr_order=None``)."""
        raise NotImplementedError(
            f"{type(self).__name__} has a singular kernel; use a Kapur-Rokhlin order"
        )

    # -- KernelMatrix protocol ------------------------------------------
    @property
    def is_translation_invariant(self) -> bool:
        return False

    def col_weights(self, index: np.ndarray) -> np.ndarray:
        return self.bd.weights[np.asarray(index, dtype=np.int64)].astype(self.dtype)

    def diagonal(self) -> np.ndarray:
        d = np.full(self.n, self.identity, dtype=self.dtype)
        if self.kr_order is None:
            d += self.bd.weights * self.kernel_diagonal_limit()
        return d

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.size, cols.size), dtype=self.dtype)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = self.layer_greens(self.points[rows], cols)
        blk = (g * self.bd.weights[cols][None, :]).astype(self.dtype, copy=False)
        if self.kr_order is not None:
            # the singular (coincident) entries are inf/nan here; the factor
            # matrix zeroes them and the diagonal assignment below fixes them
            with np.errstate(invalid="ignore"):
                blk *= kr_weight_factors(
                    self.gids[rows], self.gids[cols], self.n_global, self.kr_order
                )
        same = rows[:, None] == cols[None, :]
        if same.any():
            d = self.diagonal()
            ii, jj = np.nonzero(same)
            blk[ii, jj] = d[rows[ii]]
        return blk

    def proxy_row_block(self, proxy_points: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """True layer kernel from curve sources to off-curve proxy targets."""
        cols = np.asarray(cols, dtype=np.int64)
        if proxy_points.shape[0] == 0 or cols.size == 0:
            return np.zeros((proxy_points.shape[0], cols.size), dtype=self.dtype)
        g = self.layer_greens(proxy_points, cols)
        return (g * self.bd.weights[cols][None, :]).astype(self.dtype, copy=False)

    def proxy_col_block(self, rows: np.ndarray, proxy_points: np.ndarray) -> np.ndarray:
        """Monopole surrogate for incoming far fields (see module docstring)."""
        rows = np.asarray(rows, dtype=np.int64)
        if proxy_points.shape[0] == 0 or rows.size == 0:
            return np.zeros((rows.size, proxy_points.shape[0]), dtype=self.dtype)
        return self.greens(self.points[rows], proxy_points).astype(self.dtype, copy=False)

    # -- potentials ------------------------------------------------------
    def potential(self, targets: np.ndarray, density: np.ndarray) -> np.ndarray:
        """Evaluate the layer potential at off-curve targets (plain trapezoid).

        Spectrally accurate for targets away from the curve; do not use
        for near-boundary evaluation.
        """
        if self.n != self.n_global:
            raise RuntimeError(
                "potential() needs the full-curve kernel; this instance is a "
                f"rank-local spawn covering {self.n} of {self.n_global} nodes"
            )
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        g = self.layer_greens(targets, np.arange(self.n, dtype=np.int64))
        return g @ (self.bd.weights * np.asarray(density))

    # -- distributed support ---------------------------------------------
    def per_point_data(self, index: np.ndarray) -> dict[str, np.ndarray]:
        """Boundary data a remote rank needs to evaluate entries for ``index``."""
        idx = np.asarray(index, dtype=np.int64)
        return {
            "bd_t": self.bd.t[idx],
            "bd_normals": self.bd.normals[idx],
            "bd_speed": self.bd.speed[idx],
            "bd_weights": self.bd.weights[idx],
            "bd_curvature": self.bd.curvature[idx],
            "bd_gid": self.gids[idx],
        }

    def spawn(self, points: np.ndarray, data: dict[str, np.ndarray]) -> "BoundaryKernelMatrix":
        """Rank-local instance over a subset of the curve nodes.

        Scalar parameters (identity, KR order, ``kappa``/``eta``, the
        analytic curve) are shared; the per-node arrays come from
        :meth:`per_point_data` shipped by the owning rank.
        """
        bd = BoundaryDiscretization(
            curve=self.bd.curve,
            t=np.asarray(data["bd_t"], dtype=float),
            points=np.atleast_2d(np.asarray(points, dtype=float)),
            normals=np.asarray(data["bd_normals"], dtype=float),
            speed=np.asarray(data["bd_speed"], dtype=float),
            weights=np.asarray(data["bd_weights"], dtype=float),
            curvature=np.asarray(data["bd_curvature"], dtype=float),
        )
        dup = copy.copy(self)  # n_global and scalar params carry over
        dup.bd = bd
        dup.points = bd.points
        dup.gids = np.asarray(data["bd_gid"], dtype=np.int64)
        return dup

    # -- safety ----------------------------------------------------------
    def check_tree_resolution(self, tree: QuadTree) -> None:
        """Raise when leaf boxes are narrower than the corrected band.

        Quadrature corrections must stay inside the near field at the
        leaf level: nodes within ``kr_order`` steps along the curve are
        within ``kr_order * max_spacing`` Euclidean distance, which
        keeps them in adjacent leaf boxes as long as that distance is
        below the leaf box side.
        """
        if self.kr_order is None:
            return
        # the full-curve spacing captured at construction — a rank-local
        # spawn's subset bd would misestimate it
        band = self.kr_order * self.max_node_spacing
        side = tree.box_side(tree.nlevels)
        if band >= side:
            raise ValueError(
                f"Kapur-Rokhlin band ({band:.3g}) reaches beyond a leaf box "
                f"({side:.3g}); refine the curve or use a shallower tree"
            )


class LaplaceSLP(BoundaryKernelMatrix):
    """Laplace single-layer operator (log-singular; Kapur--Rokhlin)."""

    def __init__(self, bd: BoundaryDiscretization, *, identity=0.0, kr_order: int = 6):
        super().__init__(bd, identity=identity, kr_order=kr_order)
        self.dtype = np.dtype(np.float64)

    def greens(self, x, y):
        return laplace_greens(x, y)

    def layer_greens(self, x, cols):
        return laplace_slp_kernel(x, self.points[cols])


class LaplaceDLP(BoundaryKernelMatrix):
    """Laplace double-layer operator (smooth kernel, analytic diagonal)."""

    def __init__(self, bd: BoundaryDiscretization, *, identity=0.0):
        super().__init__(bd, identity=identity, kr_order=None)
        self.dtype = np.dtype(np.float64)

    def greens(self, x, y):
        return laplace_greens(x, y)

    def layer_greens(self, x, cols):
        return laplace_dlp_kernel(x, self.points[cols], self.bd.normals[cols])

    def kernel_diagonal_limit(self):
        return -self.bd.curvature / (4.0 * np.pi)


class HelmholtzSLP(BoundaryKernelMatrix):
    """Helmholtz single-layer operator (log-singular; Kapur--Rokhlin)."""

    def __init__(self, bd: BoundaryDiscretization, kappa: float, *, identity=0.0, kr_order: int = 6):
        if kappa <= 0:
            raise ValueError(f"wave number must be positive, got {kappa}")
        super().__init__(bd, identity=identity, kr_order=kr_order)
        self.kappa = float(kappa)
        self.dtype = np.dtype(np.complex128)

    def greens(self, x, y):
        return helmholtz_greens(x, y, self.kappa)

    def layer_greens(self, x, cols):
        return helmholtz_slp_kernel(x, self.points[cols], self.kappa)


class HelmholtzDLP(BoundaryKernelMatrix):
    """Helmholtz double-layer operator (log-singular; Kapur--Rokhlin)."""

    def __init__(self, bd: BoundaryDiscretization, kappa: float, *, identity=0.0, kr_order: int = 6):
        if kappa <= 0:
            raise ValueError(f"wave number must be positive, got {kappa}")
        super().__init__(bd, identity=identity, kr_order=kr_order)
        self.kappa = float(kappa)
        self.dtype = np.dtype(np.complex128)

    def greens(self, x, y):
        return helmholtz_greens(x, y, self.kappa)

    def layer_greens(self, x, cols):
        return helmholtz_dlp_kernel(x, self.points[cols], self.bd.normals[cols], self.kappa)


class HelmholtzCFIE(BoundaryKernelMatrix):
    """Combined-field operator ``identity * I + D - i eta S`` (sound-soft CFIE).

    With ``identity = 1/2`` this is the exterior Dirichlet combined-field
    equation of Brakhage--Werner/Burton--Miller type; ``eta`` defaults to
    the wave number, the standard robust coupling choice.
    """

    def __init__(
        self,
        bd: BoundaryDiscretization,
        kappa: float,
        *,
        eta: float | None = None,
        identity=0.5,
        kr_order: int = 6,
    ):
        if kappa <= 0:
            raise ValueError(f"wave number must be positive, got {kappa}")
        super().__init__(bd, identity=identity, kr_order=kr_order)
        self.kappa = float(kappa)
        self.eta = self.kappa if eta is None else float(eta)
        self.dtype = np.dtype(np.complex128)

    def greens(self, x, y):
        return helmholtz_greens(x, y, self.kappa)

    def layer_greens(self, x, cols):
        y = self.points[cols]
        return helmholtz_dlp_kernel(
            x, y, self.bd.normals[cols], self.kappa
        ) - 1j * self.eta * helmholtz_slp_kernel(x, y, self.kappa)

