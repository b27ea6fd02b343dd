"""Column interpolative decomposition (ID), Definition 1 of the paper.

Given ``A`` with columns ``J``, find skeleton columns ``S``, redundant
columns ``R = J \\ S`` and an interpolation matrix ``T`` with

    || A[:, R] - A[:, S] @ T ||  <=  eps * || A ||.

Following the paper (Sec. II-B) we use greedy column-pivoted QR
(Cheng–Gimbutas–Martinsson–Rokhlin 2005) as implemented by LAPACK
``geqp3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg


@dataclass
class InterpolativeDecomposition:
    """Result of a column ID.

    Attributes
    ----------
    skeleton:
        Positions (into the original column order) of skeleton columns ``S``.
    redundant:
        Positions of redundant columns ``R``.
    T:
        Interpolation matrix with ``A[:, R] ~= A[:, S] @ T``;
        shape ``(len(skeleton), len(redundant))``.
    """

    skeleton: np.ndarray
    redundant: np.ndarray
    T: np.ndarray

    @property
    def rank(self) -> int:
        return self.skeleton.size

    def reconstruct(self, a: np.ndarray) -> np.ndarray:
        """Rebuild ``A`` from its skeleton columns (testing helper)."""
        out = np.empty_like(a)
        out[:, self.skeleton] = a[:, self.skeleton]
        out[:, self.redundant] = a[:, self.skeleton] @ self.T
        return out


def interp_decomp(a: np.ndarray, tol: float) -> InterpolativeDecomposition:
    """Compute a column ID of ``a`` to relative tolerance ``tol``.

    Parameters
    ----------
    a:
        Matrix ``(m, n)``; ``m = 0`` is allowed (every column is then
        redundant with an empty ``T`` — this is how the factorization
        handles boxes with an empty far field).
    tol:
        Relative spectral-ish tolerance; rank is the smallest ``k`` with
        ``|R[k, k]| <= tol * |R[0, 0]|`` in the pivoted QR.
    """
    a = np.ascontiguousarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    m, n = a.shape
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if n == 0:
        return InterpolativeDecomposition(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.zeros((0, 0), dtype=a.dtype)
        )
    if m == 0 or not np.any(a):
        # no rows (empty far field) or identically zero: everything redundant
        return InterpolativeDecomposition(
            np.empty(0, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.zeros((0, n), dtype=a.dtype),
        )

    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")

    # the routine and workspace ``scipy.linalg.qr`` would pick, without
    # its per-call wrapper; ``overwrite_a`` stays off, so f2py factors a
    # Fortran-ordered copy and the caller's ``a`` is left untouched
    geqp3, lwork = _geqp3_for(m, n, a.dtype)
    qr, jpvt, _tau, _work, info = geqp3(a, lwork=lwork)
    if info != 0:  # pragma: no cover - LAPACK input-validation guard
        raise RuntimeError(f"geqp3 failed with info={info}")
    return _from_pivoted_qr(qr, jpvt - 1, tol, n=n, dtype=a.dtype)


@lru_cache(maxsize=256)
def _geqp3_for(m: int, n: int, dtype: np.dtype) -> tuple:
    """LAPACK ``geqp3`` for ``dtype`` and its blocked workspace for ``(m, n)``.

    The workspace query depends on the shape alone, so one query serves
    every ``(m, n)`` ID of a process — the size ``scipy.linalg.qr``
    re-queries on each call, hence the same factorization bits.
    """
    probe = np.zeros((m, n), dtype=dtype, order="F")
    geqp3 = scipy.linalg.lapack.get_lapack_funcs("geqp3", (probe,))
    work = geqp3(probe, lwork=-1)[-2]
    return geqp3, int(np.real(work[0]).item())


def _from_pivoted_qr(
    r_fact: np.ndarray,
    piv: np.ndarray,
    tol: float,
    *,
    n: int,
    dtype: np.dtype,
) -> InterpolativeDecomposition:
    """Rank cut + interpolation matrix from a pivoted-QR ``R`` factor."""
    # only the upper triangle of ``r_fact`` is read (the diagonal, ``R11``
    # and ``R12``): ``geqp3``'s Householder vectors below it are ignored
    r_fact = r_fact[: min(r_fact.shape[0], n), :]
    diag = np.abs(np.diag(r_fact))
    if diag.size == 0 or diag[0] == 0.0:
        k = 0
    else:
        keep = diag > tol * diag[0]
        # pivoted QR diagonals decrease (approximately); take the prefix
        k = int(np.count_nonzero(keep))
        if not np.all(keep[:k]):  # non-monotone edge case: first False wins
            k = int(np.argmin(keep))

    skeleton = np.asarray(piv[:k], dtype=np.int64)
    redundant = np.asarray(piv[k:], dtype=np.int64)
    if k == 0:
        t_mat = np.zeros((0, n), dtype=dtype)
        return InterpolativeDecomposition(skeleton, np.asarray(piv, dtype=np.int64), t_mat)
    if redundant.size == 0:
        return InterpolativeDecomposition(skeleton, redundant, np.zeros((k, 0), dtype=dtype))
    r11 = r_fact[:k, :k]
    r12 = r_fact[:k, k:]
    t_mat = scipy.linalg.solve_triangular(r11, r12, lower=False)
    return InterpolativeDecomposition(skeleton, redundant, t_mat.astype(dtype, copy=False))


def interp_decomp_stack(stack: np.ndarray, tol: float) -> list[InterpolativeDecomposition]:
    """Grouped column IDs of a stack of equal-shape matrices.

    The factor sweep's compress stage assembles the compression matrices
    of a whole group of same-shape boxes as one ``(nbox, m, k)`` array
    and runs their IDs here. A stack of one is :func:`interp_decomp`
    itself; otherwise every member is factored by the same ``geqp3``
    call with the same workspace, on its own Fortran-ordered copy
    (``stack`` is left untouched), so each member is
    :func:`interp_decomp` of it.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValueError(f"expected a (nbox, m, n) stack, got shape {stack.shape}")
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    nb, m, n = stack.shape
    if nb == 0:
        return []
    if nb == 1:  # nothing to amortize: the scalar routine, bit for bit
        return [interp_decomp(stack[0], tol)]
    if m == 0 or n == 0:
        # degenerate shapes: the scalar path's early returns cover these
        return [interp_decomp(stack[b], tol) for b in range(nb)]

    geqp3, lwork = _geqp3_for(m, n, stack.dtype)
    out: list[InterpolativeDecomposition] = []
    for b in range(nb):
        if not np.any(stack[b]):
            out.append(
                InterpolativeDecomposition(
                    np.empty(0, dtype=np.int64),
                    np.arange(n, dtype=np.int64),
                    np.zeros((0, n), dtype=stack.dtype),
                )
            )
            continue
        # always a copy: a one-row or one-column member is already
        # Fortran-contiguous, and ``overwrite_a`` would factor it in place
        qr, jpvt, _tau, _work, info = geqp3(
            np.array(stack[b], order="F"), lwork=lwork, overwrite_a=True
        )
        if info != 0:  # pragma: no cover - LAPACK input-validation guard
            raise RuntimeError(f"geqp3 failed with info={info}")
        out.append(_from_pivoted_qr(qr, jpvt - 1, tol, n=n, dtype=stack.dtype))
    return out


def id_error(a: np.ndarray, decomposition: InterpolativeDecomposition) -> float:
    """Relative spectral-norm ID error (testing helper)."""
    if decomposition.redundant.size == 0:
        return 0.0
    approx = a[:, decomposition.skeleton] @ decomposition.T
    denom = np.linalg.norm(a, 2)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(a[:, decomposition.redundant] - approx, 2) / denom)
