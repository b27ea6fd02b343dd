"""Proxy-circle construction for fast compression (Sec. II-C, Fig. 2).

The proxy circle represents the interaction between a box ``B`` and the
part of its far field beyond the distance-2 ring ``M(B)``; by potential
theory a discretized circle separating ``B`` from ``F(B) \\ M(B)``
captures those interactions to spectral accuracy. The circle must lie
inside the ``M`` ring, i.e. its radius must be in ``(1.5 L, 2.5 L]``
for box side ``L`` — the paper picks ``2.5 L``.
"""

from __future__ import annotations

import numpy as np

from repro.core.options import SRSOptions
from repro.kernels.base import KernelMatrix

#: proxy points per unit of ``kappa * radius`` on a wave kernel's circle,
#: so the circle resolves the wavelength
PROXY_OVERSAMPLING = 3.0


def proxy_point_count(kernel: KernelMatrix, radius: float, opts: SRSOptions) -> int:
    """Number of proxy points: ``opts.n_proxy``, raised to
    ``PROXY_OVERSAMPLING * kappa * radius`` when the kernel exposes a
    wave number ``kappa``."""
    n = opts.n_proxy
    kappa = getattr(kernel, "kappa", None)
    if kappa is not None:
        n = max(n, int(np.ceil(PROXY_OVERSAMPLING * float(kappa) * radius)))
    return n


def proxy_circle(center: np.ndarray, radius: float, n_points: int) -> np.ndarray:
    """``n_points`` equispaced points on the circle of given center/radius."""
    if radius <= 0:
        raise ValueError(f"proxy radius must be positive, got {radius}")
    if n_points <= 0:
        raise ValueError(f"n_points must be positive, got {n_points}")
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    return np.column_stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)]
    )


def proxy_circle_stack(
    centers: np.ndarray, radius: float, n_points: int
) -> np.ndarray:
    """Stacked proxy circles: ``(nbox, n_points, 2)`` for ``(nbox, 2)`` centers.

    At a given level every box shares one radius and point count, so the
    compress stage builds a group's circles in one broadcast instead of looping
    :func:`proxy_circle` per box. Row ``i`` is bitwise-identical to
    ``proxy_circle(centers[i], radius, n_points)``.
    """
    if radius <= 0:
        raise ValueError(f"proxy radius must be positive, got {radius}")
    if n_points <= 0:
        raise ValueError(f"n_points must be positive, got {n_points}")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    out = np.empty((centers.shape[0], n_points, 2))
    out[:, :, 0] = centers[:, 0:1] + radius * np.cos(theta)[None, :]
    out[:, :, 1] = centers[:, 1:2] + radius * np.sin(theta)[None, :]
    return out
