"""Rank-local view of the kernel matrix.

A rank only ever knows the coordinates (and per-point data such as the
scattering potential) of points it owns or has received from neighbors.
``LocalKernel`` wraps that knowledge behind the same interface the
sequential core uses — ``block`` / ``proxy_row_block`` /
``proxy_col_block`` with *global* indices — by translating global point
indices into rows of a locally reconstructed kernel. Asking for a point
the rank was never told about raises, which is how the test suite
verifies the communication protocol delivers exactly the right halo.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelMatrix


class LocalKernel:
    """Kernel-matrix view over the subset of points known to one rank."""

    def __init__(
        self,
        template: KernelMatrix,
        global_ids: np.ndarray,
        points: np.ndarray,
        per_point: dict[str, np.ndarray] | None = None,
    ):
        self._template = template
        self._ids = np.asarray(global_ids, dtype=np.int64)
        self._points = np.atleast_2d(np.asarray(points, dtype=float))
        self._per_point = {k: np.asarray(v) for k, v in (per_point or {}).items()}
        if self._ids.size != self._points.shape[0]:
            raise ValueError("global_ids and points length mismatch")
        self._rebuild()

    def _rebuild(self) -> None:
        order = np.argsort(self._ids, kind="stable")
        self._ids = self._ids[order]
        if np.any(np.diff(self._ids) == 0):
            raise ValueError("duplicate global ids in local kernel")
        self._points = self._points[order]
        self._per_point = {k: v[order] for k, v in self._per_point.items()}
        self.inner = self._template.spawn(self._points, self._per_point)
        self.dtype = self.inner.dtype

    # ------------------------------------------------------------------
    def extend(
        self,
        global_ids: np.ndarray,
        points: np.ndarray,
        per_point: dict[str, np.ndarray] | None = None,
    ) -> int:
        """Add newly learned points; returns how many were actually new."""
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if global_ids.size == 0:
            return 0
        points = np.atleast_2d(np.asarray(points, dtype=float))
        per_point = {k: np.asarray(v) for k, v in (per_point or {}).items()}
        pos = np.searchsorted(self._ids, global_ids)
        pos = np.clip(pos, 0, self._ids.size - 1) if self._ids.size else pos
        known = (
            (self._ids[pos] == global_ids) if self._ids.size else np.zeros(global_ids.size, bool)
        )
        new = ~known
        if not np.any(new):
            return 0
        self._ids = np.concatenate([self._ids, global_ids[new]])
        self._points = np.vstack([self._points, points[new]])
        for k in list(self._per_point):
            if k not in per_point:
                raise ValueError(f"extend() missing per-point field {k!r}")
            self._per_point[k] = np.concatenate([self._per_point[k], per_point[k][new]])
        self._rebuild()
        return int(np.count_nonzero(new))

    @property
    def known_ids(self) -> np.ndarray:
        return self._ids

    @property
    def kappa(self):
        """Wave number of the underlying kernel, if any (proxy sizing)."""
        return getattr(self.inner, "kappa", None)

    @property
    def symmetric(self) -> bool:
        """Whether the underlying kernel matrix is bitwise symmetric."""
        return self.inner.symmetric

    @property
    def hermitian(self) -> bool:
        """Whether the underlying kernel matrix is exactly Hermitian."""
        return self.inner.hermitian

    @property
    def weight_ratio(self) -> float:
        """The underlying kernel's constant ``col_w / row_w``."""
        return self.inner.weight_ratio

    @property
    def n_known(self) -> int:
        return self._ids.size

    def _local(self, index: np.ndarray) -> np.ndarray:
        index = np.asarray(index, dtype=np.int64)
        if index.size == 0:
            return index
        pos = np.searchsorted(self._ids, index)
        bad = (pos >= self._ids.size) | (
            self._ids[np.minimum(pos, self._ids.size - 1)] != index
        )
        if np.any(bad):
            missing = index[bad][:5]
            raise KeyError(
                f"local kernel asked about unknown global point ids {missing.tolist()} "
                "(halo exchange protocol violated)"
            )
        return pos

    def coords_of(self, index: np.ndarray) -> np.ndarray:
        return self._points[self._local(index)]

    def per_point_of(self, index: np.ndarray) -> dict[str, np.ndarray]:
        loc = self._local(index)
        return {k: v[loc] for k, v in self._per_point.items()}

    # -- KernelMatrix-compatible surface (global indices) ---------------
    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.inner.block(self._local(rows), self._local(cols))

    def proxy_row_block(self, proxy_points: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.inner.proxy_row_block(proxy_points, self._local(cols))

    def proxy_col_block(self, rows: np.ndarray, proxy_points: np.ndarray) -> np.ndarray:
        return self.inner.proxy_col_block(self._local(rows), proxy_points)

    # -- stacked (multi-box) blocks: ``_local`` is shape-preserving, so
    # -- ``(nb, k)`` global index stacks translate elementwise ----------
    def block_stack(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.inner.block_stack(self._local(rows), self._local(cols))

    def proxy_row_block_stack(
        self, proxy_points: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        return self.inner.proxy_row_block_stack(proxy_points, self._local(cols))

    def proxy_col_block_stack(
        self, rows: np.ndarray, proxy_points: np.ndarray
    ) -> np.ndarray:
        return self.inner.proxy_col_block_stack(self._local(rows), proxy_points)
