"""Kernel-matrix protocol shared by all kernels.

Every kernel matrix in this package has the factored form

    A[i, j] = row_w[i] * g(x_i, x_j) * col_w[j]      for i != j
    A[i, i] = diagonal()[i]                          (singular self term)

where ``g`` is the (translation-invariant) Green's function and the
row/column weights carry the quadrature weight ``h^2`` and any variable
coefficient (e.g. ``kappa^2 sqrt(b_i b_j)`` for Lippmann–Schwinger).

The split matters for proxy compression: the column space of
``A[F, B]`` equals the column space of ``g(x_F, x_B) @ diag(col_w[B])``
because the far-field row scaling ``diag(row_w[F])`` is nonsingular, so
the proxy surrogate only needs the *B-side* weights (see
``proxy_row_block`` / ``proxy_col_block``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class KernelMatrix(ABC):
    """Dense kernel matrix ``A`` over a fixed planar point set."""

    #: point coordinates, shape (N, 2)
    points: np.ndarray
    #: numpy dtype of matrix entries
    dtype: np.dtype

    @abstractmethod
    def greens(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Raw Green's function matrix ``g(x_i, y_j)``, shape (len(x), len(y)).

        ``g`` must be finite for distinct arguments; entries with
        coincident arguments may be arbitrary (callers mask them).
        """

    @abstractmethod
    def diagonal(self) -> np.ndarray:
        """Singular self-interaction entries ``A[i, i]``, shape (N,)."""

    def row_weights(self, index: np.ndarray) -> np.ndarray:
        """Row scaling ``row_w[index]``; default all-ones."""
        return np.ones(len(index), dtype=self.dtype)

    def col_weights(self, index: np.ndarray) -> np.ndarray:
        """Column scaling ``col_w[index]``; default all-ones."""
        return np.ones(len(index), dtype=self.dtype)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def is_translation_invariant(self) -> bool:
        """True when ``g(x, y)`` depends only on ``x - y`` (enables FFT matvec)."""
        return True

    #: True when :meth:`greens` accepts stacked ``(nb, m, 2)`` inputs and
    #: broadcasts to ``(nb, m, k)`` — the isotropic radial kernels built
    #: on :func:`pairwise_distances` set this so the multi-box block API
    #: below evaluates a whole same-shape group in one ufunc sweep.
    #: Kernels with per-pair logic (layer potentials with local
    #: quadrature corrections) leave it False and take the per-box loop.
    greens_vectorized: bool = False

    #: True when ``A == A^T`` *bitwise*: ``g(x, y)`` and ``g(y, x)`` are
    #: the same floats and ``row_w[i] * col_w[j] == row_w[j] * col_w[i]``
    #: (the weights enter every block as that one commutative product).
    #: Both sweeps then evaluate an unmodified box pair once and hand
    #: out the transpose for the reverse direction — identical to a
    #: direct evaluation, so who asks first cannot matter. Laplace,
    #: Yukawa, Gaussian and the (complex symmetric) Helmholtz volume
    #: kernel declare it; layer potentials weight columns only and
    #: leave it False. It also selects the one-block-per-pair store and
    #: the half-height compression matrix (see :attr:`hermitian`).
    symmetric: bool = False

    #: True when ``A == A^H`` exactly: a ``symmetric`` kernel with real
    #: entries (Laplace, Gaussian, Yukawa). A ``symmetric`` or
    #: ``hermitian`` kernel gets an interaction store with one block per
    #: unordered box pair, the other orientation served as its
    #: transpose (Schur updates inherit the symmetry), and a compression
    #: matrix of half the rows, under both factor modes: ``A[B, M]^*``
    #: repeats ``A[M, B]`` row for row (is its conjugate, if ``A`` is
    #: complex symmetric) and the proxy row panel is the column panel's
    #: transpose times :attr:`weight_ratio`, so ``[A[M, B]; s K[B, P]^*]``
    #: with ``s = sqrt((1 + weight_ratio^2) / 2)`` has half the real part
    #: of the four panels' Gram matrix — and CPQR's pivots and ``T``
    #: depend on a matrix only through its Gram matrix. This flag selects
    #: how that matrix is compressed: as it is when True; when False (a
    #: complex-symmetric kernel: Helmholtz, ``A == A^T != A^H``, whose
    #: four panels have a real Gram matrix at ``weight_ratio == 1``) as
    #: its real ``[Re; Im]`` stack, whose Gram matrix is the same, so
    #: the ID runs in real arithmetic and ``T`` is real.
    hermitian: bool = False

    @property
    def weight_ratio(self) -> float:
        """``col_w[i] / row_w[i]``, the one number a ``symmetric`` kernel has.

        ``row_w[i] * col_w[j] == row_w[j] * col_w[i]`` for all ``i, j``
        makes the ratio the same at every point, so point 0 tells it:
        ``proxy_row_block(P, B) == weight_ratio * proxy_col_block(B, P).T``.
        Read only for ``symmetric`` and ``hermitian`` kernels (the
        compression matrix).
        """
        first = np.zeros(1, dtype=np.int64)
        return float(np.real(self.col_weights(first)[0] / self.row_weights(first)[0]))

    def greens_stack(
        self, x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Green's function over stacked ``(nb, m, 2)`` point sets.

        Writes into ``out`` (shape ``(nb, m, k)``, the kernel's dtype)
        when given and returns it; the stacked block methods pass their
        result array so no full-size temporary outlives the call.
        Defaults to :meth:`greens` (which broadcasts when
        ``greens_vectorized`` is set). Radial kernels whose ``g`` has a
        closed form in the *squared* distance override this to skip the
        square-root pass over the whole stack and to run every pass in
        place; such overrides may differ from :meth:`greens` in the
        last float ulp (e.g. ``log(sqrt(s))`` vs ``log(s)/2``). The
        factor sweep (both schedules) evaluates its compression
        matrices, near-field prefill and parent assembly through this
        entry point; the lazy per-pair :meth:`block` path goes through
        :meth:`greens`.
        """
        g = self.greens(x, y)
        if out is None:
            return g
        out[...] = g
        return out

    def _weighted(self, g, rows=None, cols=None, out=None) -> np.ndarray:
        """``g`` times the row/column weights of a block, in the kernel dtype.

        ``rows`` / ``cols`` are index arrays of shape ``(..., r)`` /
        ``(..., c)``; ``None`` leaves that side unweighted (the proxy
        surrogates). Both sides enter as the one commutative product
        ``g * (row_w * col_w)`` — which is what makes a ``symmetric``
        kernel's transposed block a direct evaluation bit for bit — and
        the all-ones default row weight is not multiplied in at all.
        Callers evaluating coincident pairs hold ``np.errstate`` open:
        ``g`` may be ``inf`` there, and ``inf`` times a complex weight
        is an invalid operation.
        """
        w = None
        if rows is not None and type(self).row_weights is not KernelMatrix.row_weights:
            w = self.row_weights(rows.reshape(-1)).reshape(rows.shape + (1,))
        if cols is not None:
            cw = self.col_weights(cols.reshape(-1)).reshape(cols.shape[:-1] + (1, -1))
            w = cw if w is None else w * cw
        if w is not None:
            g = np.multiply(g, w, out=out)
        return g.astype(self.dtype, copy=False)

    def check_tree_resolution(self, tree) -> None:
        """Validate a quadtree against this kernel's locality assumptions.

        ``srs_factor`` (and the distributed driver) call this before
        use. The default kernel entries are pure evaluations of
        ``g``, so any tree works; kernels with locally corrected
        quadrature (:mod:`repro.bie`) override this to require the
        corrected band to stay inside the leaf-level near field.
        """

    # ------------------------------------------------------------------
    # distributed support: ranks only know a subset of the points
    # ------------------------------------------------------------------
    def per_point_data(self, index: np.ndarray) -> dict[str, np.ndarray]:
        """Per-point auxiliary data (e.g. the scattering potential) for a subset.

        This is what a rank must *communicate* alongside coordinates so
        a remote rank can evaluate kernel entries involving its points.
        """
        return {}

    def spawn(self, points: np.ndarray, data: dict[str, np.ndarray]) -> "KernelMatrix":
        """Rebuild the same kernel over a different point set.

        Used by the distributed workers: a rank reconstructs a local
        kernel from the coordinates (+ ``per_point_data``) it received,
        indexed in its own arrival-order numbering, and re-spawns it on
        the concatenated arrays whenever new points arrive. Scalar
        parameters (``h``, ``kappa``, …) are program constants shared
        by all ranks.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support spawn()")

    # ------------------------------------------------------------------
    # assembled blocks
    # ------------------------------------------------------------------
    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Submatrix ``A[rows][:, cols]`` with correct diagonal entries."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.size, cols.size), dtype=self.dtype)
        same = rows[:, None] == cols[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = self.greens(self.points[rows], self.points[cols])
            blk = self._weighted(g, rows, cols)
        if same.any():
            d = self.diagonal()
            ii, jj = np.nonzero(same)
            blk[ii, jj] = d[rows[ii]]
        return blk

    def proxy_row_block(self, proxy_points: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Surrogate for the rows of ``A[F, cols]``: ``g(proxy, x_cols) diag(col_w)``."""
        cols = np.asarray(cols, dtype=np.int64)
        if proxy_points.shape[0] == 0 or cols.size == 0:
            return np.zeros((proxy_points.shape[0], cols.size), dtype=self.dtype)
        return self._weighted(self.greens(proxy_points, self.points[cols]), cols=cols)

    def proxy_col_block(self, rows: np.ndarray, proxy_points: np.ndarray) -> np.ndarray:
        """Surrogate for the columns of ``A[rows, F]``: ``diag(row_w) g(x_rows, proxy)``."""
        rows = np.asarray(rows, dtype=np.int64)
        if proxy_points.shape[0] == 0 or rows.size == 0:
            return np.zeros((rows.size, proxy_points.shape[0]), dtype=self.dtype)
        return self._weighted(self.greens(self.points[rows], proxy_points), rows=rows)

    # ------------------------------------------------------------------
    # multi-box (stacked) blocks — the level-batched factor sweep
    # evaluates a whole group of same-shape blocks at once. All three
    # methods take index/point stacks with a leading box axis ``nb`` and
    # return ``(nb, rows, cols)``. The defaults loop over the per-box
    # methods (and therefore respect any subclass overrides of
    # ``block``/``proxy_*_block``); kernels with ``greens_vectorized``
    # get a single broadcast kernel evaluation instead, every pass of
    # it written ``out=`` into the result: a stack costs its
    # transcendental calls, not a dozen faulted-in temporaries.
    # ------------------------------------------------------------------
    def block_stack(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Stacked submatrices ``A[rows[b]][:, cols[b]]`` for every box ``b``.

        ``rows``/``cols`` are integer index stacks of shape ``(nb, r)``
        and ``(nb, c)``. Equal to per-box :meth:`block` calls — bitwise
        where ``greens_stack`` is ``greens``, else to the last ulp.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        nb, r = rows.shape
        c = cols.shape[1]
        if nb == 0 or r == 0 or c == 0:
            return np.zeros((nb, r, c), dtype=self.dtype)
        blk = np.empty((nb, r, c), dtype=self.dtype)
        if not self.greens_vectorized:
            for b in range(nb):
                blk[b, :, :] = self.block(rows[b], cols[b])
            return blk
        with np.errstate(divide="ignore", invalid="ignore"):
            g = self.greens_stack(self.points[rows], self.points[cols], out=blk)
            self._weighted(g, rows, cols, out=blk)
        # a diagonal entry needs overlapping row/column index ranges:
        # compare elementwise only in those stack elements (self pairs)
        lo = np.maximum(rows.min(axis=1), cols.min(axis=1))
        hi = np.minimum(rows.max(axis=1), cols.max(axis=1))
        cand = np.nonzero(lo <= hi)[0]
        if cand.size:
            bb, ii, jj = np.nonzero(rows[cand][:, :, None] == cols[cand][:, None, :])
            bb = cand[bb]
            blk[bb, ii, jj] = self.diagonal()[rows[bb, ii]]
        return blk

    def proxy_row_block_stack(
        self, proxy_points: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Stacked :meth:`proxy_row_block`: ``(nb, p, 2)`` x ``(nb, c)``."""
        cols = np.asarray(cols, dtype=np.int64)
        nb, p = proxy_points.shape[0], proxy_points.shape[1]
        c = cols.shape[1]
        if nb == 0 or p == 0 or c == 0:
            return np.zeros((nb, p, c), dtype=self.dtype)
        blk = np.empty((nb, p, c), dtype=self.dtype)
        if not self.greens_vectorized:
            for b in range(nb):
                blk[b, :, :] = self.proxy_row_block(proxy_points[b], cols[b])
            return blk
        g = self.greens_stack(proxy_points, self.points[cols], out=blk)
        return self._weighted(g, cols=cols, out=blk)

    def proxy_col_block_stack(
        self, rows: np.ndarray, proxy_points: np.ndarray
    ) -> np.ndarray:
        """Stacked :meth:`proxy_col_block`: ``(nb, r)`` x ``(nb, p, 2)``."""
        rows = np.asarray(rows, dtype=np.int64)
        nb, p = proxy_points.shape[0], proxy_points.shape[1]
        r = rows.shape[1]
        if nb == 0 or p == 0 or r == 0:
            return np.zeros((nb, r, p), dtype=self.dtype)
        blk = np.empty((nb, r, p), dtype=self.dtype)
        if not self.greens_vectorized:
            for b in range(nb):
                blk[b, :, :] = self.proxy_col_block(rows[b], proxy_points[b])
            return blk
        g = self.greens_stack(self.points[rows], proxy_points, out=blk)
        return self._weighted(g, rows=rows, out=blk)


def dense_matrix(kernel: KernelMatrix) -> np.ndarray:
    """Assemble the full ``N x N`` matrix (testing / small problems only)."""
    idx = np.arange(kernel.n, dtype=np.int64)
    return kernel.block(idx, idx)


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between two planar point sets.

    Accepts plain ``(m, 2)`` x ``(k, 2)`` sets (returns ``(m, k)``) or
    stacked ``(nb, m, 2)`` x ``(nb, k, 2)`` sets (returns
    ``(nb, m, k)``) — the broadcast form the multi-box block API feeds
    to vectorized kernels.
    """
    dx = x[..., :, None, 0] - y[..., None, :, 0]
    dy = x[..., :, None, 1] - y[..., None, :, 1]
    return np.hypot(dx, dy)


def squared_distances(
    x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distance matrix; broadcasts like
    :func:`pairwise_distances` but without the square root (or
    ``hypot``'s overflow guards) — the cheap input for ``greens_stack``
    overrides of kernels radial in ``r^2``. Fills ``out`` when given;
    ``dx*dx + dy*dy`` runs pass by pass in place, ``dy`` being the one
    temporary."""
    out = np.subtract(x[..., :, None, 0], y[..., None, :, 0], out=out)
    dy = np.subtract(x[..., :, None, 1], y[..., None, :, 1])
    np.multiply(out, out, out=out)
    np.multiply(dy, dy, out=dy)
    return np.add(out, dy, out=out)
