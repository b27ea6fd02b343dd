"""Solver strategies and the method registry behind ``repro.solve``.

A *strategy* is one named way of turning ``(problem, rhs)`` into a
solution: it builds a setup object satisfying the
:class:`Factorization` protocol (``solve(b)`` + ``memory_bytes()``) and
then runs the solve — one inverse application for the direct methods, a
preconditioned Krylov refinement for the iterative ones. The built-in
factorization engines already satisfy the protocol
(:class:`~repro.core.factorization.SRSFactorization`,
:class:`~repro.parallel.driver.ParallelFactorization`,
:class:`~repro.baselines.block_jacobi.BlockJacobiPreconditioner`);
:class:`DenseLUFactorization` adapts scipy's pivoted LU.

Registering a strategy class (``@register_strategy``) makes its
``name`` a valid :attr:`SolveConfig.method`, so new backends plug into
every workload, example, and benchmark that drives the facade.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, NamedTuple, Protocol, runtime_checkable

import numpy as np
import scipy.linalg

from repro.api.config import EXECUTIONS, SolveConfig
from repro.baselines.block_jacobi import BlockJacobiPreconditioner
from repro.core.factorization import srs_factor
from repro.iterative.cg import cg
from repro.iterative.gmres import gmres
from repro.kernels.base import dense_matrix
from repro.matvec.dense import DenseMatVec
from repro.matvec.treecode import TreecodeMatVec

#: default simulated rank count for parallel execution
DEFAULT_RANKS = 4


@runtime_checkable
class Factorization(Protocol):
    """Common protocol of every strategy's setup product."""

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply the (approximate) inverse to one or more rhs columns."""
        ...

    def memory_bytes(self) -> int:
        """Bytes held by the stored factors."""
        ...


class StrategyResult(NamedTuple):
    """What a strategy's ``run`` hands back to the facade."""

    x: np.ndarray
    iterations: int
    converged: bool
    krylov: Any | None


# ----------------------------------------------------------------------
# execution resolution
# ----------------------------------------------------------------------
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


def _srs_setup_key(config: SolveConfig) -> tuple:
    """Setup key shared by every strategy whose setup is the RS-S engine.

    The sequential and distributed engines produce numerically
    interchangeable factorizations, but they are distinct setup
    *products* (different timing/counter semantics), so the resolved
    execution and rank count stay in the key. ``ranks`` is
    normalized to the default it would resolve to. Every
    :class:`~repro.core.options.SRSOptions` field enters the key —
    enumerated via ``dataclasses.fields`` so options added later are
    never silently shared across cache entries.
    """
    from dataclasses import fields

    execution = resolve_execution(config.execution)
    ranks = None
    if execution != "sequential":
        ranks = DEFAULT_RANKS if config.ranks is None else int(config.ranks)
    srs_key = tuple(
        (f.name, getattr(config.srs, f.name)) for f in fields(config.srs)
    )
    return ("srs", execution, ranks, srs_key)


def get_operator(
    problem, config: SolveConfig, override: Callable | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Forward matvec for the iterative strategies."""
    if override is not None:
        return override
    if config.operator == "auto":
        return problem.operator()
    if config.operator == "dense":
        return DenseMatVec(problem.kernel)
    return TreecodeMatVec(
        problem.kernel, tree=problem.factor_tree, leaf_size=config.srs.leaf_size
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type["SolverStrategy"]] = {}


def register_strategy(cls: type["SolverStrategy"]) -> type["SolverStrategy"]:
    """Class decorator: make ``cls.name`` a valid solve method."""
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"{cls.__name__} must define a string 'name'")
    _REGISTRY[name] = cls
    return cls


def available_methods() -> list[str]:
    """Sorted names of every registered solve method."""
    return sorted(_REGISTRY)


def validate_method(name: str) -> None:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown solve method {name!r}; registered methods: "
            f"{', '.join(available_methods())}"
        )


def resolve_strategy(name: str) -> "SolverStrategy":
    """Instantiate the registered strategy for ``name`` (clear error if none)."""
    validate_method(name)
    return _REGISTRY[name]()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
class SolverStrategy(ABC):
    """One named way of solving a :class:`~repro.api.problem.Problem`."""

    #: registry key, also :attr:`SolveConfig.method`
    name: str
    #: whether the strategy honors parallel execution modes
    supports_parallel = False
    #: strategies sharing a family produce interchangeable ``setup``
    #: products (``None``: the setup is private to this method)
    setup_family: str | None = None

    def setup_key(self, config: SolveConfig) -> tuple:
        """Hashable description of everything ``setup`` reads off the config.

        Used (with the problem fingerprint) as the factorization-cache
        key by :mod:`repro.service`: two configs with equal setup keys
        may share one cached setup product. Refinement-only fields
        (``tol``/``maxiter``/``restart``/``operator``) must stay out.
        """
        return (self.setup_family or self.name,)

    def check_execution(self, config: SolveConfig) -> None:
        """Reject execution modes the strategy cannot honor."""
        if resolve_execution(config.execution) != "sequential" and not self.supports_parallel:
            raise ValueError(
                f"method {self.name!r} only supports execution='sequential' "
                f"(got {config.execution!r})"
            )

    def check_compatible(self, problem, config: SolveConfig) -> None:
        """Reject incompatible problems *before* any expensive setup."""

    @abstractmethod
    def setup(self, problem, config: SolveConfig) -> Factorization:
        """Build the reusable factorization/preconditioner."""

    @abstractmethod
    def run(
        self,
        problem,
        b: np.ndarray,
        fact: Factorization,
        config: SolveConfig,
        operator: Callable | None = None,
    ) -> StrategyResult:
        """Produce the solution from the setup product."""


@register_strategy
class DirectStrategy(SolverStrategy):
    """One application of the RS-S compressed inverse (paper Sec. II-F)."""

    name = "direct"
    supports_parallel = True
    setup_family = "srs"

    def setup_key(self, config: SolveConfig) -> tuple:
        return _srs_setup_key(config)

    def setup(self, problem, config: SolveConfig) -> Factorization:
        return build_factorization(problem, config)

    def run(self, problem, b, fact, config, operator=None) -> StrategyResult:
        return StrategyResult(fact.solve(b), 0, True, None)


class IdentityPreconditioner:
    """Setup product of the unpreconditioned Krylov strategies: ``M = I``."""

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.array(b, copy=True)

    __call__ = solve

    def memory_bytes(self) -> int:
        return 0


@register_strategy
class CGStrategy(SolverStrategy):
    """Unpreconditioned CG baseline (the paper's ``nit_cg`` columns)."""

    name = "cg"
    setup_family = "identity"

    def check_compatible(self, problem, config: SolveConfig) -> None:
        if not getattr(problem, "is_symmetric", False):
            raise ValueError(
                f"method 'cg' requires a symmetric problem; "
                f"{type(problem).__name__} is not — use method='gmres'"
            )

    def setup(self, problem, config: SolveConfig) -> Factorization:
        return IdentityPreconditioner()

    def run(self, problem, b, fact, config, operator=None) -> StrategyResult:
        res = cg(
            get_operator(problem, config, operator),
            b,
            tol=config.tol,
            maxiter=config.maxiter,
        )
        return StrategyResult(res.x, res.iterations, res.converged, res)


@register_strategy
class GMRESStrategy(SolverStrategy):
    """Unpreconditioned restarted GMRES baseline (Table V's comparison)."""

    name = "gmres"
    setup_family = "identity"

    def setup(self, problem, config: SolveConfig) -> Factorization:
        return IdentityPreconditioner()

    def run(self, problem, b, fact, config, operator=None) -> StrategyResult:
        res = gmres(
            get_operator(problem, config, operator),
            b,
            tol=config.tol,
            restart=config.restart,
            maxiter=config.maxiter,
        )
        return StrategyResult(res.x, res.iterations, res.converged, res)


@register_strategy
class PCGStrategy(SolverStrategy):
    """RS-S-preconditioned CG to ``config.tol`` (symmetric problems)."""

    name = "pcg"
    supports_parallel = True
    setup_family = "srs"

    def setup_key(self, config: SolveConfig) -> tuple:
        return _srs_setup_key(config)

    def check_compatible(self, problem, config: SolveConfig) -> None:
        if not getattr(problem, "is_symmetric", False):
            raise ValueError(
                f"method 'pcg' requires a symmetric problem; "
                f"{type(problem).__name__} is not — use method='pgmres'"
            )

    def setup(self, problem, config: SolveConfig) -> Factorization:
        return build_factorization(problem, config)

    def run(self, problem, b, fact, config, operator=None) -> StrategyResult:
        res = cg(
            get_operator(problem, config, operator),
            b,
            preconditioner=fact.solve,
            tol=config.tol,
            maxiter=config.maxiter,
        )
        return StrategyResult(res.x, res.iterations, res.converged, res)


@register_strategy
class PGMRESStrategy(SolverStrategy):
    """RS-S right-preconditioned restarted GMRES to ``config.tol``."""

    name = "pgmres"
    supports_parallel = True
    setup_family = "srs"

    def setup_key(self, config: SolveConfig) -> tuple:
        return _srs_setup_key(config)

    def setup(self, problem, config: SolveConfig) -> Factorization:
        return build_factorization(problem, config)

    def run(self, problem, b, fact, config, operator=None) -> StrategyResult:
        res = gmres(
            get_operator(problem, config, operator),
            b,
            preconditioner=fact.solve,
            tol=config.tol,
            restart=config.restart,
            maxiter=config.maxiter,
        )
        return StrategyResult(res.x, res.iterations, res.converged, res)


class DenseLUFactorization:
    """Pivoted LU of the assembled dense matrix, behind the protocol."""

    def __init__(self, kernel):
        self.n = kernel.n
        self._lu = scipy.linalg.lu_factor(dense_matrix(kernel))

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        return scipy.linalg.lu_solve(self._lu, b)

    __call__ = solve

    def memory_bytes(self) -> int:
        lu, piv = self._lu
        return int(lu.nbytes + piv.nbytes)


@register_strategy
class DenseLUStrategy(SolverStrategy):
    """O(N^3) dense reference solve (small problems only)."""

    name = "dense_lu"

    def setup(self, problem, config: SolveConfig) -> Factorization:
        return DenseLUFactorization(problem.kernel)

    def run(self, problem, b, fact, config, operator=None) -> StrategyResult:
        return StrategyResult(fact.solve(b), 0, True, None)


@register_strategy
class BlockJacobiStrategy(SolverStrategy):
    """Leaf-block-diagonal preconditioner + Krylov (ablation baseline)."""

    name = "block_jacobi"

    def setup_key(self, config: SolveConfig) -> tuple:
        return (self.name, config.srs.leaf_size)

    def setup(self, problem, config: SolveConfig) -> Factorization:
        return BlockJacobiPreconditioner(
            problem.kernel,
            leaf_size=config.srs.leaf_size,
            tree=problem.factor_tree,
        )

    def run(self, problem, b, fact, config, operator=None) -> StrategyResult:
        op = get_operator(problem, config, operator)
        if getattr(problem, "is_symmetric", False):
            res = cg(
                op, b, preconditioner=fact.solve, tol=config.tol, maxiter=config.maxiter
            )
        else:
            res = gmres(
                op,
                b,
                preconditioner=fact.solve,
                tol=config.tol,
                restart=config.restart,
                maxiter=config.maxiter,
            )
        return StrategyResult(res.x, res.iterations, res.converged, res)
