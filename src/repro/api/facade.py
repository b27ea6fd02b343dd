"""``repro.solve`` — one pipeline over every solve method.

The paper presents RS-S as a single factorization wearing three hats:
a direct solver, a preconditioner, and a distributed solver. The facade
makes that literal: every workload runs through

    report = repro.solve(problem, b, SolveConfig(method=..., execution=...))

and every method/execution combination — sequential or distributed
RS-S, preconditioned CG/GMRES refinement, dense LU, block-Jacobi —
returns the same :class:`~repro.api.report.SolveReport`.

:class:`Solver` is the stateful variant: it caches the method's setup
(the expensive factorization) across repeated right-hand sides and
tolerance refinements, which is exactly the amortization argument the
paper makes for direct solvers (Sec. I-A).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.api import strategies
from repro.api.config import SolveConfig
from repro.api.problem import check_problem
from repro.api.report import SolveReport
from repro.api.strategies import StrategyResult, resolve_execution
from repro.obs import REGISTRY, health, solve_health, trace

_SOLVES = REGISTRY.counter(
    "repro_solve_total",
    "Facade solves by method and execution",
    labelnames=("method", "execution"),
)


def _make_config(config: SolveConfig | None, overrides: dict) -> SolveConfig:
    if config is None:
        return SolveConfig(**overrides)
    if overrides:
        return replace(config, **overrides)
    return config


def _parallel_extras(fact) -> dict:
    """Simulated timings + comm counters when the engine was distributed."""
    from repro.parallel.driver import ParallelFactorization

    if not isinstance(fact, ParallelFactorization):
        return {}
    return {
        "sim_t_fact": fact.t_fact,
        "sim_t_solve": (
            fact.last_solve_run.elapsed if fact.last_solve_run is not None else None
        ),
        "sim_t_comp": fact.t_fact_comp,
        "sim_t_other": fact.t_fact_other,
        "messages": fact.factor_run.total_messages,
        "comm_bytes": fact.factor_run.total_bytes,
    }


def make_report(
    problem,
    rhs: np.ndarray,
    config: SolveConfig,
    execution: str,
    fact,
    out: StrategyResult,
    *,
    t_setup: float,
    t_solve: float,
    memory_bytes: int | None = None,
    **serving,
) -> SolveReport:
    """Count one finished solve and assemble its :class:`SolveReport`.

    The only place a report is built: :func:`solve` and the service's
    coalesced direct path both end here, so health, memory, the parallel
    extras and the solve / Krylov counters cannot drift between them.
    ``memory_bytes`` takes a size the caller already holds (the service
    cache computes it once at insert); ``serving`` carries the service's
    ``cache_hit`` / ``batch_size`` / ``t_queue`` stamps.
    """
    _SOLVES.inc(method=config.method, execution=execution)
    if out.krylov is not None:
        health.observe_krylov(config.method, out.krylov)
    if memory_bytes is None and hasattr(fact, "memory_bytes"):
        memory_bytes = int(fact.memory_bytes())
    return SolveReport(
        health=solve_health(fact, out.krylov),
        x=out.x,
        method=config.method,
        execution=execution,
        problem=problem,
        rhs=rhs,
        iterations=out.iterations,
        converged=out.converged,
        t_setup=t_setup,
        t_solve=t_solve,
        memory_bytes=memory_bytes,
        krylov=out.krylov,
        config=config,
        factorization=fact,
        **serving,
        **_parallel_extras(fact),
    )


def solve(
    problem,
    b: np.ndarray | None = None,
    config: SolveConfig | None = None,
    *,
    factorization=None,
    **overrides,
) -> SolveReport:
    """Solve the problem's linear system through the unified pipeline.

    Parameters
    ----------
    problem:
        Anything implementing :class:`~repro.api.problem.Problem`.
    b:
        Right-hand side, ``(N,)`` or ``(N, nrhs)``; ``None`` takes the
        problem's :meth:`default_rhs`.
    config:
        The :class:`~repro.api.config.SolveConfig`; field overrides may
        also be passed as keyword arguments
        (``solve(prob, b, method="pcg", tol=1e-10)``).
    factorization:
        Pre-built setup product to reuse (skips the setup stage; this
        is the :class:`Solver` cache path).

    Returns
    -------
    SolveReport
        Solution plus residual, iteration, timing, memory, and
        communication metadata.
    """
    config = _make_config(config, overrides)
    check_problem(problem)
    strategies.check_method(problem, config)
    execution = resolve_execution(config.execution)

    rhs = problem.default_rhs() if b is None else np.asarray(b)
    if rhs.shape[0] != problem.n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {problem.n}")

    with trace.span(
        "solve", method=config.method, execution=execution, n=problem.n
    ) as root:
        if factorization is None:
            t0 = time.perf_counter()
            with trace.span("solve.setup", method=config.method):
                fact = strategies.setup(problem, config)
            t_setup = time.perf_counter() - t0
        else:
            fact, t_setup = factorization, 0.0

        t0 = time.perf_counter()
        with trace.span("solve.run", method=config.method):
            out = strategies.run(problem, rhs, fact, config)
        t_solve = time.perf_counter() - t0
        root.set(iterations=out.iterations, converged=out.converged)

    return make_report(
        problem, rhs, config, execution, fact, out, t_setup=t_setup, t_solve=t_solve
    )


class Solver:
    """A problem bound to a config, amortizing the factorization.

    The first :meth:`solve` (or touching :attr:`factorization`) builds
    the method's setup product; every later solve — new right-hand
    sides, tighter ``tol`` — reuses it::

        solver = repro.Solver(prob, method="pcg")
        r1 = solver.solve(b1)
        r2 = solver.solve(b2, tol=1e-8)   # same factorization, new target

    Reports from cached solves carry ``t_setup = 0``; the one-time cost
    is in :attr:`setup_time`.
    """

    def __init__(self, problem, config: SolveConfig | None = None, **overrides):
        check_problem(problem)
        self.problem = problem
        self.config = _make_config(config, overrides)
        strategies.check_method(problem, self.config)
        self._fact = None
        #: wall seconds of the one-time setup (None until it runs)
        self.setup_time: float | None = None

    @property
    def factorization(self):
        """The cached setup product, built on first access."""
        if self._fact is None:
            t0 = time.perf_counter()
            with trace.span("solve.setup", method=self.config.method):
                self._fact = strategies.setup(self.problem, self.config)
            self.setup_time = time.perf_counter() - t0
        return self._fact

    def solve(
        self,
        b: np.ndarray | None = None,
        *,
        tol: float | None = None,
        maxiter: int | None = None,
    ) -> SolveReport:
        """Solve one rhs on the cached factorization.

        ``tol``/``maxiter`` refine this call only; the factorization
        (whose accuracy is ``config.srs.tol``) is untouched.
        """
        cfg = self.config
        updates = {}
        if tol is not None:
            updates["tol"] = tol
        if maxiter is not None:
            updates["maxiter"] = maxiter
        if updates:
            cfg = replace(cfg, **updates)
        return solve(self.problem, b, cfg, factorization=self.factorization)

    __call__ = solve
