"""Configuration of one ``repro.solve`` pipeline run."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.core.options import SRSOptions

#: execution modes of the RS-S setup (every other setup is sequential)
EXECUTIONS = ("sequential", "thread", "process", "auto")


class Method(NamedTuple):
    """One solve method: the setup product it builds, then its refinement."""

    setup: str  # "srs" | "identity" | "dense_lu" | "block_jacobi"
    krylov: str | None  # None: one application; "cg" | "gmres"; "auto": cg if symmetric
    symmetric: bool = False


#: every solve method by name (:attr:`SolveConfig.method`)
METHODS = {
    "direct": Method("srs", None),
    "pcg": Method("srs", "cg", True),
    "pgmres": Method("srs", "gmres"),
    "cg": Method("identity", "cg", True),
    "gmres": Method("identity", "gmres"),
    "dense_lu": Method("dense_lu", None),
    "block_jacobi": Method("block_jacobi", "auto"),
}


def validate_method(name: str) -> None:
    """Raise unless ``name`` is a row of :data:`METHODS`."""
    if name not in METHODS:
        raise ValueError(
            f"unknown solve method {name!r}; registered methods: "
            f"{', '.join(sorted(METHODS))}"
        )


@dataclass(frozen=True)
class SolveConfig:
    """Everything that selects *how* a problem is solved.

    One config composes the factorization parameters
    (:class:`~repro.core.options.SRSOptions`) with the solve method,
    the execution engine, and the iterative-refinement controls, so the
    same problem runs as a direct solve, a preconditioned Krylov
    refinement, a distributed solve, or a dense/baseline reference by
    changing fields instead of call paths.

    Attributes
    ----------
    method:
        A name in :data:`METHODS`:

        * ``"direct"`` — one application of the RS-S compressed inverse
          (the paper's O(N) direct solve).
        * ``"pcg"`` — CG to ``tol``, RS-S-preconditioned (symmetric
          problems; Tables II/III).
        * ``"pgmres"`` — restarted GMRES to ``tol``, RS-S right
          preconditioner (Tables IV/V and the BIE workloads).
        * ``"dense_lu"`` — pivoted LU of the assembled dense matrix
          (small problems / reference).
        * ``"block_jacobi"`` — leaf-block-diagonal preconditioner +
          Krylov (the ablation baseline).
        * ``"cg"`` / ``"gmres"`` — *unpreconditioned* Krylov baselines
          (the paper's ``nit_cg`` columns and Table V comparison).

        Unknown names raise a :class:`ValueError` listing the table.
    execution:
        ``"sequential"`` runs the factorization in-process;
        ``"thread"``/``"process"`` run it on ``ranks`` simulated MPI
        ranks over the matching vmpi backend; ``"auto"`` picks thread vs process
        by the usable-core budget (CPU affinity where the platform
        exposes it, else ``os.cpu_count()``; single core: threads;
        more: processes), mirroring ``REPRO_VMPI_BACKEND=auto``.
    ranks:
        Simulated rank count for parallel execution (a power-of-two
        squared: 1, 4, 16, ...). ``None`` defaults to 4.
    tol:
        Relative-residual target of the iterative refinement (the
        paper refines to ``1e-12``). Ignored by ``direct``/``dense_lu``.
    maxiter:
        Iteration cap for the Krylov methods.
    restart:
        GMRES restart length (the paper uses 50 when preconditioned).
    srs:
        Factorization options (ID tolerance, leaf size, proxy
        parameters) passed to the RS-S engines, and the leaf size used
        by ``block_jacobi``.
    factor_mode:
        Shorthand for ``srs.factor_mode`` (``"strict"`` or
        ``"batched"``): when set, ``srs`` is rewritten with this sweep
        mode at construction, so ``repro.solve(prob, b,
        factor_mode="batched")`` works without spelling out a full
        :class:`~repro.core.options.SRSOptions`. ``None`` (default)
        leaves ``srs`` untouched.
    """

    method: str = "direct"
    execution: str = "sequential"
    ranks: int | None = None
    tol: float = 1e-12
    maxiter: int = 500
    restart: int = 50
    srs: SRSOptions = field(default_factory=SRSOptions)
    factor_mode: str | None = None

    def __post_init__(self) -> None:
        validate_method(self.method)
        if self.execution not in EXECUTIONS:
            raise ValueError(
                f"unknown execution {self.execution!r}; "
                f"expected one of {', '.join(EXECUTIONS)}"
            )
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.maxiter <= 0:
            raise ValueError(f"maxiter must be positive, got {self.maxiter}")
        if self.restart <= 0:
            raise ValueError(f"restart must be positive, got {self.restart}")
        if self.ranks is not None and self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if self.factor_mode is not None and self.factor_mode != self.srs.factor_mode:
            # frozen dataclass: route the rewrite through __setattr__;
            # SRSOptions.__post_init__ validates the mode name
            object.__setattr__(
                self, "srs", replace(self.srs, factor_mode=self.factor_mode)
            )
