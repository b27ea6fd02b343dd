"""The solve methods behind ``repro.solve``: one setup, then one run.

A method is a row of :data:`~repro.api.config.METHODS`: the setup
product it builds — the RS-S factorization (``"srs"``), nothing
(``"identity"``), a dense LU, or a block-Jacobi preconditioner — and the
refinement that runs on that product: one application, or a CG / GMRES
solve preconditioned by it. Every setup product satisfies the
:class:`Factorization` protocol (``solve(b)`` + ``memory_bytes()``): the
built-in engines already do
(:class:`~repro.core.factorization.SRSFactorization`,
:class:`~repro.parallel.driver.ParallelFactorization`,
:class:`~repro.baselines.block_jacobi.BlockJacobiPreconditioner`), and
:class:`DenseLUFactorization` holds the dense matrix's
:class:`~repro.linalg.lu.PartialLU`.

A new method is one row of the table; a new kind of setup product is
also one branch in :func:`setup` (and :func:`setup_key`).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.api.config import EXECUTIONS, METHODS, SolveConfig
from repro.baselines.block_jacobi import BlockJacobiPreconditioner
from repro.core.factorization import srs_factor
from repro.iterative.cg import cg
from repro.iterative.gmres import GMRESResult, gmres
from repro.kernels.base import dense_matrix
from repro.linalg.lu import PartialLU

#: default simulated rank count for parallel execution
DEFAULT_RANKS = 4


@runtime_checkable
class Factorization(Protocol):
    """Common protocol of every method's setup product."""

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply the (approximate) inverse to one or more rhs columns."""
        ...

    def memory_bytes(self) -> int:
        """Bytes held by the stored factors."""
        ...


class StrategyResult(NamedTuple):
    """What :func:`run` hands back to the facade."""

    x: np.ndarray
    iterations: int
    converged: bool
    krylov: Any | None


class IdentityPreconditioner:
    """Setup product of the unpreconditioned Krylov methods: ``M = I``."""

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.array(b, copy=True)

    __call__ = solve

    def memory_bytes(self) -> int:
        return 0


class DenseLUFactorization:
    """Pivoted LU of the assembled dense matrix, behind the protocol."""

    def __init__(self, kernel):
        A = dense_matrix(kernel)
        if not np.isfinite(A).all():
            raise ValueError("dense_lu: the assembled matrix holds a NaN or inf")
        self._lu = PartialLU(A)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve_left(np.asarray(b))

    __call__ = solve

    def memory_bytes(self) -> int:
        return self._lu.memory_bytes()


def available_methods() -> list[str]:
    """Sorted names of every solve method."""
    return sorted(METHODS)


def resolve_execution(execution: str) -> str:
    """Map a config execution to a concrete mode.

    ``"auto"`` resolves to ``"thread"`` or ``"process"`` by the
    usable-core budget — CPU affinity where available, so restricted
    cpusets count as the single-core boxes they effectively are (the
    same policy as ``REPRO_VMPI_BACKEND=auto``); other names pass
    through after validation.
    """
    if execution == "auto":
        from repro.vmpi.backend import auto_backend_name

        return auto_backend_name()
    if execution not in EXECUTIONS:
        raise ValueError(
            f"unknown execution {execution!r}; expected one of {', '.join(EXECUTIONS)}"
        )
    return execution


def build_factorization(problem, config: SolveConfig):
    """RS-S factorization of the problem on the configured engine."""
    execution = resolve_execution(config.execution)
    if execution == "sequential":
        return srs_factor(problem.kernel, tree=problem.factor_tree, opts=config.srs)
    from repro.parallel.driver import parallel_srs_factor

    p = DEFAULT_RANKS if config.ranks is None else config.ranks
    return parallel_srs_factor(
        problem.kernel,
        p,
        opts=config.srs,
        domain=problem.parallel_domain,
        backend=execution,
    )


def check_method(problem, config: SolveConfig) -> None:
    """Reject an execution or a problem the method cannot honour.

    Runs before any expensive setup: only the RS-S setup runs off
    ``"sequential"``, and a symmetric method (CG) rejects a
    non-symmetric problem, naming the GMRES method on the same setup.
    """
    row = METHODS[config.method]
    if row.setup != "srs" and resolve_execution(config.execution) != "sequential":
        raise ValueError(
            f"method {config.method!r} only supports execution='sequential' "
            f"(got {config.execution!r})"
        )
    if row.symmetric and not getattr(problem, "is_symmetric", False):
        alt = next(
            name
            for name, other in METHODS.items()
            if other.setup == row.setup and other.krylov == "gmres"
        )
        raise ValueError(
            f"method {config.method!r} requires a symmetric problem; "
            f"{type(problem).__name__} is not — use method={alt!r}"
        )


def setup(problem, config: SolveConfig) -> Factorization:
    """Build the method's reusable setup product."""
    kind = METHODS[config.method].setup
    if kind == "srs":
        return build_factorization(problem, config)
    if kind == "identity":
        return IdentityPreconditioner()
    if kind == "dense_lu":
        return DenseLUFactorization(problem.kernel)
    return BlockJacobiPreconditioner(
        problem.kernel, leaf_size=config.srs.leaf_size, tree=problem.factor_tree
    )


def setup_key(config: SolveConfig) -> tuple:
    """Hashable description of everything :func:`setup` reads off the config.

    Used (with the problem fingerprint) as the factorization-cache key
    by :mod:`repro.service`, and hashed into spill-file names by the
    store: two configs with equal setup keys share one setup product,
    so ``direct``/``pcg``/``pgmres`` share an RS-S factorization.
    Refinement-only fields (``tol``/``maxiter``/``restart``) stay out.

    The sequential and distributed RS-S engines produce numerically
    interchangeable factorizations, but they are distinct setup
    *products* (different timing/counter semantics), so the resolved
    execution and rank count stay in the key. ``ranks`` is normalized to
    the default it would resolve to. Every
    :class:`~repro.core.options.SRSOptions` field enters the key —
    enumerated via ``dataclasses.fields`` so options added later are
    never silently shared across cache entries.
    """
    kind = METHODS[config.method].setup
    if kind == "block_jacobi":
        return (kind, config.srs.leaf_size)
    if kind != "srs":
        return (kind,)
    execution = resolve_execution(config.execution)
    ranks = None
    if execution != "sequential":
        ranks = DEFAULT_RANKS if config.ranks is None else int(config.ranks)
    srs_key = tuple((f.name, getattr(config.srs, f.name)) for f in fields(config.srs))
    return (kind, execution, ranks, srs_key)


def run(
    problem,
    b: np.ndarray,
    fact: Factorization,
    config: SolveConfig,
) -> StrategyResult:
    """Produce the solution from the setup product.

    One application of ``fact`` when the method has no Krylov
    refinement; otherwise CG or GMRES to ``config.tol`` on the
    problem's ``operator()``, preconditioned by ``fact``
    (unpreconditioned on the identity setup). ``"auto"`` runs CG
    exactly when the problem is symmetric. CG iterates on an
    ``(N, nrhs)`` block as one stacked vector; GMRES solves each column
    on its own, reports the largest column's iteration count, converges
    when every column does, and keeps the residual history of its
    slowest column (an unconverged one first).
    """
    row = METHODS[config.method]
    if row.krylov is None:
        return StrategyResult(fact.solve(b), 0, True, None)
    op = problem.operator()
    pre = None if row.setup == "identity" else fact.solve
    krylov = row.krylov
    if krylov == "auto":
        krylov = "cg" if getattr(problem, "is_symmetric", False) else "gmres"
    if krylov == "cg":
        res = cg(op, b, preconditioner=pre, tol=config.tol, maxiter=config.maxiter)
        return StrategyResult(res.x, res.iterations, res.converged, res)

    # GMRES builds its basis in the rhs dtype: a real rhs of a complex
    # problem is promoted, not truncated to the real part
    b = b.astype(np.result_type(b.dtype, problem.kernel.dtype), copy=False)

    def column(rhs: np.ndarray) -> GMRESResult:
        return gmres(
            op,
            rhs,
            preconditioner=pre,
            tol=config.tol,
            restart=config.restart,
            maxiter=config.maxiter,
        )

    if b.ndim == 1:
        res = column(b)
    else:
        # a Krylov space belongs to one vector: each column of a block
        # rhs runs on its own, to its own ``tol``
        cols = [column(np.ascontiguousarray(c)) for c in b.T]
        worst = max(cols, key=lambda c: (not c.converged, c.iterations))
        res = GMRESResult(
            np.stack([c.x for c in cols], axis=1),
            max(c.iterations for c in cols),
            all(c.converged for c in cols),
            worst.residual_history,
        )
    return StrategyResult(res.x, res.iterations, res.converged, res)
