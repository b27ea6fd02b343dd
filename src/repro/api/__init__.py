"""Unified solve pipeline: ``repro.solve(problem, b, config)``.

One composable entry point over every solver the repo implements::

    import repro
    from repro.api import SolveConfig

    prob = repro.LaplaceVolumeProblem(m=64)
    report = repro.solve(prob, prob.random_rhs(), method="pcg", tol=1e-12)
    print(report.summary())

Pieces:

* :class:`~repro.api.problem.Problem` — the protocol workloads
  implement (kernel, forward operator, rhs helpers, geometry hints).
* :class:`~repro.api.config.SolveConfig` — method + execution +
  refinement knobs composed with :class:`~repro.core.options.SRSOptions`.
* the method table :data:`~repro.api.config.METHODS` — each name mapped
  to the setup product it builds and the Krylov refinement (if any) that
  runs on it; :mod:`repro.api.strategies` builds and runs them, every
  setup product a common :class:`~repro.api.strategies.Factorization`.
* :class:`~repro.api.report.SolveReport` — the uniform outcome record.
* :func:`~repro.api.facade.solve` / :class:`~repro.api.facade.Solver`
  — one-shot and factorization-caching front doors.
"""

from repro.api.config import EXECUTIONS, SolveConfig
from repro.api.facade import Solver, solve
from repro.api.fingerprint import (
    fingerprint_kernel,
    fingerprint_problem,
    problem_fingerprint,
)
from repro.api.problem import Problem, ProblemBase, check_problem
from repro.api.report import SolveReport
from repro.api.strategies import (
    DenseLUFactorization,
    Factorization,
    StrategyResult,
    available_methods,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "Solver",
    "solve",
    "Problem",
    "ProblemBase",
    "check_problem",
    "Factorization",
    "StrategyResult",
    "DenseLUFactorization",
    "available_methods",
    "EXECUTIONS",
    "fingerprint_kernel",
    "fingerprint_problem",
    "problem_fingerprint",
]
