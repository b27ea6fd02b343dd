"""Partial LU elimination of the redundant diagonal block.

Wraps LAPACK ``getrf``/``getrs`` and provides both left solves
``X_RR^{-1} B`` and right solves ``B X_RR^{-1}`` (needed because the
Schur update is ``A[C1, C2] -= X[C1, R] X_RR^{-1} X[R, C2]``), plus the
triangular half-solves ``L_R^{-1} v`` and ``U_R^{-1} v`` used when
applying the factorization (Sec. II-D, the ``L``/``U`` operators).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class PartialLU:
    """LU factorization ``P X = L U`` of a (small, dense) diagonal block."""

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

    def memory_bytes(self) -> int:
        """Bytes held by the stored factors (``_lu`` and ``_piv``)."""
        return int(self._lu.nbytes + self._piv.nbytes)

    # -- full solves ----------------------------------------------------
    # ``lu_solve`` gets a private copy of the pivots: scipy's getrs
    # wrapper shifts the array it is handed to 1-based in place around
    # the LAPACK call and back afterwards, so two threads solving on one
    # cached factorization would read each other's half-shifted pivots —
    # wrong results, and a pivot array left off by one for good.
    def solve_left(self, b: np.ndarray) -> np.ndarray:
        """``X_RR^{-1} @ b``."""
        if self.n == 0 or b.size == 0:
            return np.zeros_like(b)
        return scipy.linalg.lu_solve((self._lu, self._piv.copy()), b, check_finite=False)

    def solve_right(self, b: np.ndarray) -> np.ndarray:
        """``b @ X_RR^{-1}``."""
        if self.n == 0 or b.size == 0:
            return np.zeros_like(b)
        # b X^{-1} = (X^{-T} b^T)^T ; trans=1 solves X^T y = rhs
        return scipy.linalg.lu_solve(
            (self._lu, self._piv.copy()), b.T, trans=1, check_finite=False
        ).T

    # -- triangular half-solves (for applying the factorization) -------
    def apply_lower_inverse(self, v: np.ndarray) -> np.ndarray:
        """``L_R^{-1} P v`` — the forward-substitution half of the solve."""
        if self.n == 0 or v.size == 0:
            return v.copy()
        vp = v[_perm_from_piv(self._piv)]
        return scipy.linalg.solve_triangular(
            self._lu, vp, lower=True, unit_diagonal=True, check_finite=False
        )

    def apply_upper_inverse(self, v: np.ndarray) -> np.ndarray:
        """``U_R^{-1} v`` — the backward-substitution half of the solve."""
        if self.n == 0 or v.size == 0:
            return v.copy()
        return scipy.linalg.solve_triangular(self._lu, v, lower=False, check_finite=False)

    # -- triangular forward applications (for the forward matvec) -------
    def apply_lower(self, v: np.ndarray) -> np.ndarray:
        """``P^T L v`` — inverse of :meth:`apply_lower_inverse`."""
        if self.n == 0 or v.size == 0:
            return v.copy()
        lv = v + np.tril(self._lu, -1) @ v
        out = np.empty(lv.shape, dtype=np.result_type(self._lu.dtype, v.dtype))
        out[_perm_from_piv(self._piv)] = lv
        return out

    def apply_upper(self, v: np.ndarray) -> np.ndarray:
        """``U v`` — inverse of :meth:`apply_upper_inverse`."""
        if self.n == 0 or v.size == 0:
            return v.copy()
        return np.triu(self._lu) @ v


def _perm_from_piv(piv: np.ndarray) -> np.ndarray:
    """Convert LAPACK sequential row swaps into a permutation vector."""
    perm = np.arange(piv.size)
    for i, p in enumerate(piv):
        if i != p:
            perm[i], perm[p] = perm[p], perm[i]
    return perm
