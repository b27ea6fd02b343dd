"""FFT matvec for translation-invariant kernels on uniform grids.

On the cell-centered ``m x m`` grid, ``A = D + diag(row_w) G diag(col_w)``
where ``G[i j, i' j'] = g((i - i') h, (j - j') h)`` (zero on the exact
diagonal) is block Toeplitz with Toeplitz blocks. Embedding the offset
table in a ``2m x 2m`` circulant turns the application of ``G`` into two
2D FFTs — the standard trick the paper uses to check residuals without a
distributed FMM (Sec. V: "the matrix-vector product with dense matrix A
can be performed efficiently via the fast Fourier transform").
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelMatrix


class FFTMatVec:
    """O(N log N) application of a translation-invariant kernel matrix.

    Parameters
    ----------
    kernel:
        Kernel matrix whose points are exactly
        ``repro.geometry.uniform_grid(m)`` (row-major ``k = i*m + j``).
    m:
        Grid side; ``kernel.n`` must equal ``m**2``.
    """

    def __init__(self, kernel: KernelMatrix, m: int):
        if not kernel.is_translation_invariant:
            raise ValueError("FFTMatVec requires a translation-invariant kernel")
        if kernel.n != m * m:
            raise ValueError(f"kernel has {kernel.n} points, expected m^2 = {m * m}")
        self.kernel = kernel
        self.m = int(m)
        self.shape = (kernel.n, kernel.n)
        self.dtype = kernel.dtype

        idx = np.arange(kernel.n, dtype=np.int64)
        self._row_w = kernel.row_weights(idx)
        self._col_w = kernel.col_weights(idx)
        self._diag = kernel.diagonal()
        self._ghat = self._build_symbol()

    def _build_symbol(self) -> np.ndarray:
        m = self.m
        pts = self.kernel.points
        # infer spacing from the first two grid points (row-major j fastest)
        h = float(pts[1, 1] - pts[0, 1]) if m > 1 else 1.0
        # wrapped offsets: index p in [0, 2m) encodes offset p (p < m) or p - 2m
        offs = np.arange(2 * m)
        offs = np.where(offs < m, offs, offs - 2 * m).astype(float) * h
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        offset_pts = np.column_stack([ox.ravel(), oy.ravel()])
        origin = np.zeros((1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            table = self.kernel.greens(offset_pts, origin)[:, 0].reshape(2 * m, 2 * m)
        table = np.asarray(table, dtype=np.complex128)
        table[0, 0] = 0.0  # exact diagonal handled separately
        table[~np.isfinite(table)] = 0.0  # unused wrap row/col (offset +-m)
        return np.fft.fft2(table)

    def convolve(self, v: np.ndarray) -> np.ndarray:
        """``G v`` for one grid vector: the unweighted convolution with the
        offset table, zero on the exact diagonal."""
        m = self.m
        pad = np.zeros((2 * m, 2 * m), dtype=np.complex128)
        pad[:m, :m] = v.reshape(m, m)
        return np.fft.ifft2(np.fft.fft2(pad) * self._ghat)[:m, :m].ravel()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        squeeze = x.ndim == 1
        xm = x[:, None] if squeeze else x
        if xm.shape[0] != self.kernel.n:
            raise ValueError("dimension mismatch")
        out_dtype = np.result_type(self.dtype, xm.dtype)
        out = np.empty((self.kernel.n, xm.shape[1]), dtype=np.complex128)
        for k in range(xm.shape[1]):
            out[:, k] = self._row_w * self.convolve(self._col_w * xm[:, k])
        out += self._diag[:, None] * xm
        if not np.iscomplexobj(np.empty(0, dtype=out_dtype)):
            out = out.real
        out = out.astype(out_dtype, copy=False)
        return out[:, 0] if squeeze else out

    __call__ = matvec
