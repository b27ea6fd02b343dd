"""repro — an O(N) distributed-memory parallel direct solver for planar
integral equations.

A from-scratch Python reproduction of Liang, Chen, Martinsson & Biros
(IPDPS 2024, arXiv:2310.15458): the strong recursive skeletonization
factorization (RS-S) of dense kernel matrices from 2D integral
equations, parallelized over a simulated distributed-memory runtime.

Quickstart (the unified facade)::

    import repro

    prob = repro.LaplaceVolumeProblem(m=64)     # N = 64^2 collocation points
    report = repro.solve(prob, prob.random_rhs())   # O(N) direct solve
    print(report.summary())                     # relres ~1e-3 (first-kind IE)

    # same pipeline, different method: PCG refinement to 1e-12
    report = repro.solve(prob, prob.random_rhs(), method="pcg", tol=1e-12)
    print(report.iterations)                    # ~5 iterations

    # distributed over 16 simulated ranks (thread/process/auto backends)
    report = repro.solve(prob, prob.random_rhs(), execution="auto", ranks=16)
    print(report.sim_t_fact, report.messages)

    # amortize one factorization over many right-hand sides
    solver = repro.Solver(prob, method="pcg")
    for seed in range(8):
        print(solver.solve(prob.random_rhs(seed)).iterations)

The underlying engines remain importable (``srs_factor``,
``parallel_srs_factor``, the iterative solvers) for code that wants
them directly.
"""

from repro.api import Problem, SolveConfig, SolveReport, Solver, solve
from repro.obs import REGISTRY, render_prometheus, trace
from repro.service import ServiceConfig, SolveService
from repro.core import SRSFactorization, SRSOptions, srs_factor
from repro.parallel import (
    ParallelFactorization,
    parallel_srs_factor,
    shared_memory_factor,
)
from repro.apps import LaplaceVolumeProblem, ScatteringProblem, plane_wave
from repro.bie import (
    Circle,
    Ellipse,
    InteriorDirichletProblem,
    Kite,
    SoundSoftScattering,
    StarCurve,
)
from repro.kernels import (
    GaussianKernelMatrix,
    HelmholtzKernelMatrix,
    KernelMatrix,
    LaplaceKernelMatrix,
    YukawaKernelMatrix,
)
from repro.geometry import uniform_grid
from repro.matvec import FFTMatVec
from repro.iterative import cg, gmres
from repro.tree import QuadTree

__version__ = "1.0.0"

__all__ = [
    "solve",
    "Solver",
    "SolveConfig",
    "SolveReport",
    "SolveService",
    "ServiceConfig",
    "Problem",
    "trace",
    "REGISTRY",
    "render_prometheus",
    "SRSFactorization",
    "SRSOptions",
    "srs_factor",
    "ParallelFactorization",
    "parallel_srs_factor",
    "shared_memory_factor",
    "LaplaceVolumeProblem",
    "ScatteringProblem",
    "plane_wave",
    "Circle",
    "Ellipse",
    "StarCurve",
    "Kite",
    "InteriorDirichletProblem",
    "SoundSoftScattering",
    "KernelMatrix",
    "LaplaceKernelMatrix",
    "HelmholtzKernelMatrix",
    "GaussianKernelMatrix",
    "YukawaKernelMatrix",
    "uniform_grid",
    "FFTMatVec",
    "cg",
    "gmres",
    "QuadTree",
    "__version__",
]
