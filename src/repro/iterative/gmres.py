"""Restarted GMRES with optional right preconditioning, in flexible form.

The paper solves the indefinite complex Helmholtz systems with GMRES
(restart = 20 for the unpreconditioned Table V baseline) and uses the
RS-S factorization as the preconditioner otherwise. The preconditioned
loop is flexible GMRES (Saad, SIAM J. Sci. Comput. 14(2), 1993): it
keeps each preconditioned direction ``z_j = M^{-1} v_j`` and closes a
restart cycle with ``x += Z y``, so an inner iteration costs one
preconditioner and one operator application and a cycle adds one
operator application (its true residual) and no preconditioner call.
The price is one ``n``-vector per inner iteration of a cycle, beside
the Arnoldi basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.iterative.stall import refinement_stalled

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class GMRESResult:
    x: np.ndarray
    #: inner iterations (the paper's ``nit``), one operator application
    #: and, preconditioned, one preconditioner application each
    iterations: int
    converged: bool
    residual_history: list[float]

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else np.inf

    @property
    def stalled(self) -> bool:
        """Unconverged with a plateaued residual (see ``refinement_stalled``)."""
        return refinement_stalled(self.residual_history, self.converged)


def gmres(
    matvec: Operator,
    b: np.ndarray,
    *,
    preconditioner: Operator | None = None,
    tol: float = 1e-12,
    restart: int = 20,
    maxiter: int = 10_000,
    x0: np.ndarray | None = None,
) -> GMRESResult:
    """Right-preconditioned restarted (flexible) GMRES on ``A x = b``.

    With right preconditioning the solver iterates on
    ``A M^{-1} y = b``, ``x = M^{-1} y``, so the reported residual is
    the *true* residual of the original system. ``iterations`` counts
    total inner iterations, matching the paper's ``nit``: each is one
    preconditioner and one operator application. Each restart cycle
    ends with one more operator application, the true residual that
    ``residual_history`` records after the cycle's estimates; a nonzero
    ``x0`` costs one more. A zero initial guess starts from ``r0 = b``.
    """
    b = np.asarray(b)
    bnorm = float(np.linalg.norm(b))
    dtype = np.result_type(b.dtype, np.float64)
    if bnorm == 0.0:
        return GMRESResult(np.zeros(b.shape, dtype=dtype), 0, True, [0.0])
    if restart <= 0:
        raise ValueError(f"restart must be positive, got {restart}")
    x = np.zeros_like(b, dtype=dtype) if x0 is None else np.asarray(x0).astype(dtype)
    r = b.astype(dtype) if x0 is None else b - matvec(x)
    # the preconditioned directions z_j, column j written by inner iteration j
    zs = None
    if preconditioner is not None:
        zs = np.empty((b.shape[0], restart), dtype=dtype, order="F")

    total_iters = 0
    history: list[float] = []
    happy = False
    while True:
        # the one exit: the true residual at the start or after a cycle
        beta = float(np.linalg.norm(r))
        history.append(beta / bnorm)
        if beta / bnorm <= tol or happy or total_iters >= maxiter:
            return GMRESResult(x, total_iters, beta / bnorm <= tol, history)

        # Arnoldi process
        mdim = min(restart, maxiter - total_iters)
        basis = np.empty((b.shape[0], mdim + 1), dtype=dtype)
        hess = np.zeros((mdim + 1, mdim), dtype=dtype)
        basis[:, 0] = r / beta
        # Givens rotations for the least-squares problem
        cs = np.zeros(mdim, dtype=dtype)
        sn = np.zeros(mdim, dtype=dtype)
        g = np.zeros(mdim + 1, dtype=dtype)
        g[0] = beta
        for j in range(mdim):
            v = basis[:, j]
            if zs is None:
                w = matvec(v)
            else:
                zs[:, j] = z = preconditioner(v)
                w = matvec(z)
            # modified Gram-Schmidt
            for i in range(j + 1):
                hess[i, j] = np.vdot(basis[:, i], w)
                w = w - hess[i, j] * basis[:, i]
            # happy breakdown: K_{j+1} is A-invariant, so the least-squares
            # solution over it is exact — stop enlarging the basis (the
            # rotations below still run to finish the triangularization;
            # they see hess[j+1, j] = 0 and leave the residual at 0), and
            # do not restart: that would rebuild the same space.
            # Without this, basis[:, j+1] would be left uninitialized
            # (np.empty garbage) while the Arnoldi loop kept running.
            hess[j + 1, j] = np.linalg.norm(w)
            happy = not (hess[j + 1, j] > 0)
            if not happy:
                basis[:, j + 1] = w / hess[j + 1, j]
            # apply previous rotations (c real, G = [[c, s], [-conj(s), c]])
            for i in range(j):
                temp = cs[i] * hess[i, j] + sn[i] * hess[i + 1, j]
                hess[i + 1, j] = -np.conj(sn[i]) * hess[i, j] + cs[i] * hess[i + 1, j]
                hess[i, j] = temp
            # new rotation annihilating hess[j+1, j]:
            # c = |a| / r (real), s = (a / |a|) conj(b) / r, r = sqrt(|a|^2 + |b|^2)
            a, bb = hess[j, j], hess[j + 1, j]
            r_abs = np.sqrt(abs(a) ** 2 + abs(bb) ** 2)
            if r_abs == 0:
                cs[j], sn[j] = 1.0, 0.0
            elif abs(a) == 0:
                cs[j], sn[j] = 0.0, np.conj(bb) / abs(bb)
            else:
                cs[j] = abs(a) / r_abs
                sn[j] = (a / abs(a)) * np.conj(bb) / r_abs
            temp = cs[j] * g[j]
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = temp
            hess[j, j] = cs[j] * a + sn[j] * bb
            hess[j + 1, j] = 0.0
            total_iters += 1
            rel = abs(g[j + 1]) / bnorm
            history.append(float(rel))
            if rel <= tol or happy:
                break
        # solve the triangular system and update x from the cycle's
        # directions: Z y when preconditioned (no preconditioner call)
        k = j + 1
        try:
            y = np.linalg.solve(hess[:k, :k], g[:k])
        except np.linalg.LinAlgError:
            # singular-operator breakdown (e.g. rank-deficient A with
            # rhs touching the nullspace): take the minimum-norm
            # least-squares solution over the Krylov space
            y = np.linalg.lstsq(hess[:k, :k], g[:k], rcond=None)[0]
        x += (basis if zs is None else zs)[:, :k] @ y
        r = b - matvec(x)
