"""Options controlling the RS-S factorization."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SRSOptions:
    """Parameters of the strong recursive skeletonization factorization.

    Attributes
    ----------
    tol:
        Relative tolerance ``eps`` of the interpolative decomposition
        (Definition 1). The paper's experiments use ``1e-6`` by default.
    leaf_size:
        Target number of points per leaf box (``O(r)``; Sec. IV).
    proxy_radius_factor:
        Proxy-circle radius as a multiple of the box side; the paper
        chooses ``2.5 L`` (Sec. II-C).
    n_proxy:
        Baseline number of points on the proxy circle; on a wave kernel
        it grows with ``kappa * radius`` (see
        :func:`repro.core.proxy.proxy_point_count`).
    factor_mode:
        The schedule of a level's boxes: ``"strict"`` (default)
        compresses and eliminates one box at a time in todo order,
        against the store state its predecessors left;
        ``"batched"`` compresses each of the nine mod-3 colour phases
        as stacked groups, then eliminates its boxes (faster; agrees
        with strict to the ID tolerance). Both run the same compress
        stage and elimination — see :mod:`repro.core.batch`. This field
        is the only place the mode is said.
    """

    tol: float = 1e-6
    leaf_size: int = 64
    proxy_radius_factor: float = 2.5
    n_proxy: int = 64
    factor_mode: str = "strict"

    def __post_init__(self) -> None:
        if self.tol < 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
        if self.leaf_size <= 0:
            raise ValueError(f"leaf_size must be positive, got {self.leaf_size}")
        if self.proxy_radius_factor <= 1.5:
            raise ValueError(
                "proxy circle must lie outside the near field "
                f"(radius factor > 1.5), got {self.proxy_radius_factor}"
            )
        if self.n_proxy < 8:
            raise ValueError(f"n_proxy too small: {self.n_proxy}")
        if self.factor_mode not in ("strict", "batched"):
            raise ValueError(f"unknown factor_mode {self.factor_mode!r}")
