"""Partial LU elimination of the redundant diagonal block.

``P X = L U`` by LAPACK ``getrf``; every application afterwards is a row
permutation plus direct ``trtrs`` calls on the packed factors. The
factorization itself forms the elimination multipliers
``X[C, R] U^{-1}`` and ``L^{-1} P X[R, C]`` once per box (their product
is the Schur update ``X[C, R] X_RR^{-1} X[R, C]``), so a solve sweep
inlines one half-solve per box through :meth:`PartialLU.solve_state`:
``L^{-1} P v`` going up, ``U^{-1} v`` coming down (Sec. II-D, the
``L``/``U`` operators). The methods below — full and half solves, and
their forward inverses for the matvec — are the checked, general-layout
applications. The pivots are turned into a permutation once, at
construction, and never reach LAPACK again, so nothing reachable from a
solve writes to a ``PartialLU``.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import scipy.linalg


@functools.cache
def trtrs_for(dtype: np.dtype) -> Callable:
    """LAPACK ``?trtrs`` for ``dtype``, looked up once and kept here, not on the
    instances: factorizations travel by pickle, a bound f2py routine does not."""
    return scipy.linalg.get_lapack_funcs(("trtrs",), dtype=dtype)[0]


class PartialLU:
    """LU factorization ``P X = L U`` of a dense square block: a box's
    redundant diagonal block, a block-Jacobi leaf block, or a whole
    assembled matrix (``dense_lu``)."""

    def __init__(self, x_rr: np.ndarray):
        x_rr = np.asarray(x_rr)
        if x_rr.ndim != 2 or x_rr.shape[0] != x_rr.shape[1]:
            raise ValueError(f"expected a square block, got {x_rr.shape}")
        self.n = x_rr.shape[0]
        self.dtype = x_rr.dtype
        if self.n:
            self._lu, self._piv = scipy.linalg.lu_factor(x_rr, check_finite=False)
        else:
            self._lu = np.zeros((0, 0), dtype=x_rr.dtype)
            self._piv = np.zeros(0, dtype=np.int32)
        self._perm = _perm_from_piv(self._piv)

    def memory_bytes(self) -> int:
        """Bytes held by the stored factors (``_lu``, ``_piv``, ``_perm``)."""
        return int(self._lu.nbytes + self._piv.nbytes + self._perm.nbytes)

    def solve_state(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lu, perm)`` for a caller that inlines the half-solves with
        ``trtrs = trtrs_for(dtype)``, looked up once for many blocks:
        ``L^{-1} P v`` is ``trtrs(lu, v[perm], lower=1, unitdiag=1)``,
        ``U^{-1} w`` is ``trtrs(lu, w)`` and ``w U^{-1}`` is
        ``trtrs(lu, w.T, trans=1)`` transposed; each returns ``(x, info)``
        and takes operands of the block's dtype with ``n`` rows — the
        caller owns both checks and ``info``."""
        return self._lu, self._perm

    def _passthrough(self, b: np.ndarray) -> bool:
        """Whether there is nothing to solve. A wrong row count raises here:
        LAPACK only prints an XERBLA line, a gather drops surplus rows."""
        if b.shape[0] != self.n:
            raise ValueError(f"operand has {b.shape[0]} rows, expected {self.n}")
        return self.n == 0 or b.size == 0

    def _tri(self, b: np.ndarray, *, lower: bool) -> np.ndarray:
        """``L^{-1} b`` (unit diagonal) or ``U^{-1} b``, straight through LAPACK."""
        if b.dtype.kind == "c" and self._lu.dtype.kind != "c":
            # real factors: two real solves, the block is never cast to complex
            out = np.zeros(b.shape, dtype=np.result_type(self._lu.dtype, b.dtype))
            out.real = self._tri(b.real, lower=lower)
            out.imag = self._tri(b.imag, lower=lower)
            return out
        x, info = trtrs_for(self._lu.dtype)(self._lu, b, lower=lower, unitdiag=lower)
        if info:
            raise singular(info)
        return x

    def solve_left(self, b: np.ndarray) -> np.ndarray:
        """``X_RR^{-1} @ b``."""
        if self._passthrough(b):
            return np.zeros_like(b)
        return self._tri(self._tri(b[self._perm], lower=True), lower=False)

    # -- triangular half-solves (for applying the factorization) -------
    def apply_lower_inverse(self, v: np.ndarray) -> np.ndarray:
        """``L_R^{-1} P v`` — the forward-substitution half of the solve."""
        if self._passthrough(v):
            return v.copy()
        # unit L is never singular, but a block with a singular U has no
        # inverse to apply half of: fail like the two solves that reach U
        diag = self._lu.diagonal()
        if not diag.all():
            raise singular(int(np.argmin(diag != 0)) + 1)
        return self._tri(v[self._perm], lower=True)

    def apply_upper_inverse(self, v: np.ndarray) -> np.ndarray:
        """``U_R^{-1} v`` — the backward-substitution half of the solve."""
        if self._passthrough(v):
            return v.copy()
        return self._tri(v, lower=False)

    # -- triangular forward applications (for the forward matvec) -------
    def apply_lower(self, v: np.ndarray) -> np.ndarray:
        """``P^T L v`` — inverse of :meth:`apply_lower_inverse`."""
        if self.n == 0 or v.size == 0:
            return v.copy()
        lv = v + np.tril(self._lu, -1) @ v
        out = np.empty(lv.shape, dtype=np.result_type(self._lu.dtype, v.dtype))
        out[self._perm] = lv
        return out

    def apply_upper(self, v: np.ndarray) -> np.ndarray:
        """``U v`` — inverse of :meth:`apply_upper_inverse`."""
        if self.n == 0 or v.size == 0:
            return v.copy()
        return np.triu(self._lu) @ v


def singular(info: int) -> np.linalg.LinAlgError:
    """The error for a nonzero ``trtrs`` return code: ``U[info-1, info-1] == 0``."""
    return np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")


def _perm_from_piv(piv: np.ndarray) -> np.ndarray:
    """Convert LAPACK sequential row swaps into an ``int32`` permutation vector."""
    perm = list(range(piv.size))
    for i, p in enumerate(piv.tolist()):
        if i != p:
            perm[i], perm[p] = perm[p], perm[i]
    return np.array(perm, dtype=np.int32)
