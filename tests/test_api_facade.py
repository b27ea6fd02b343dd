"""Cross-method parity suite for the unified ``repro.solve`` pipeline.

Every method in the table must produce the same solution (to its
tolerance) on one volume problem and one BIE problem, return a
well-formed :class:`SolveReport`, and agree bitwise with the
engine-level calls (``srs_factor`` + ``cg`` / ``gmres``, ...) it wraps.
Unknown method/execution names must be rejected with errors that name
the alternatives.
"""

import os
import subprocess
import sys
import warnings
from textwrap import dedent

import numpy as np
import pytest

import repro
from repro import SolveConfig, Solver, solve
from repro.api import ProblemBase, available_methods, check_problem
from repro.api.config import METHODS, validate_method
from repro.api.strategies import resolve_execution
from repro.baselines.block_jacobi import BlockJacobiPreconditioner
from repro.bie import InteriorDirichletProblem, StarCurve
from repro.core import SRSOptions, srs_factor
from repro.iterative import cg, gmres
from repro.kernels.base import dense_matrix
from repro.linalg.lu import PartialLU
from repro.vmpi import process_backend_available


@pytest.fixture(scope="module")
def volume():
    prob = repro.LaplaceVolumeProblem(16)
    b = prob.random_rhs(seed=3)
    x_ref = np.linalg.solve(dense_matrix(prob.kernel), b)
    return prob, b, x_ref


@pytest.fixture(scope="module")
def boundary():
    prob = InteriorDirichletProblem(StarCurve(1.0, 0.3, 5), 256)
    b = prob.default_rhs()
    x_ref = np.linalg.solve(dense_matrix(prob.kernel), b)
    return prob, b, x_ref


def check_report(report, config: SolveConfig, n: int) -> None:
    """A SolveReport is well-formed whatever method produced it."""
    assert report.x.shape[0] == n
    assert report.method == config.method
    assert report.execution in ("sequential", "thread", "process")
    assert np.isfinite(report.relres)
    assert report.iterations >= 0
    assert isinstance(report.converged, bool)
    assert report.t_setup >= 0.0 and report.t_solve >= 0.0
    assert report.memory_bytes is not None and report.memory_bytes > 0
    assert report.factorization is not None
    assert len(report.residual_history) >= 1
    assert report.summary()  # renders
    if report.execution == "sequential":
        assert report.sim_t_fact is None and report.messages is None
    else:
        assert report.sim_t_fact is not None and report.sim_t_fact > 0
        assert report.messages is not None and report.comm_bytes is not None
        assert report.sim_t_comp is not None and report.sim_t_other is not None


# ----------------------------------------------------------------------
# cross-method parity
# ----------------------------------------------------------------------
VOLUME_CONFIGS = [
    SolveConfig(method="direct"),
    SolveConfig(method="pcg", tol=1e-12),
    SolveConfig(method="pgmres", tol=1e-12),
    SolveConfig(method="dense_lu"),
    SolveConfig(method="block_jacobi", tol=1e-11, maxiter=4000),
    SolveConfig(method="direct", execution="thread", ranks=4),
    SolveConfig(method="pcg", tol=1e-12, execution="thread", ranks=4),
    SolveConfig(method="pgmres", tol=1e-12, execution="thread", ranks=4),
    pytest.param(
        SolveConfig(method="pgmres", tol=1e-12, execution="process", ranks=4),
        marks=pytest.mark.skipif(
            not process_backend_available(), reason="process backend unavailable"
        ),
    ),
]


@pytest.mark.parametrize("config", VOLUME_CONFIGS, ids=lambda c: f"{c.method}-{c.execution}")
def test_volume_parity(volume, config):
    prob, b, x_ref = volume
    report = solve(prob, b, config)
    check_report(report, config, prob.n)
    scale = np.linalg.norm(x_ref)
    # direct applies the eps=1e-6 compressed inverse once; iterative
    # methods refine to their (much tighter) tolerance
    tol = 1e-3 if config.method == "direct" else 1e-6
    assert np.linalg.norm(report.x - x_ref) / scale < tol
    if config.method != "direct":
        assert report.converged
    if config.method == "pgmres" and config.execution != "sequential":
        # a distributed factorization preconditions as well as the
        # sequential one, whose numbering differs in the last digits
        seq = solve(prob, b, SolveConfig(method="pgmres", tol=config.tol))
        assert report.iterations <= seq.iterations + 1


BOUNDARY_CONFIGS = [
    SolveConfig(method="direct", srs=SRSOptions(tol=1e-10)),
    SolveConfig(method="pgmres", tol=1e-12, srs=SRSOptions(tol=1e-8)),
    SolveConfig(method="dense_lu"),
    SolveConfig(method="block_jacobi", tol=1e-12, maxiter=4000),
    SolveConfig(method="direct", execution="thread", ranks=4, srs=SRSOptions(tol=1e-10)),
]


@pytest.mark.parametrize("config", BOUNDARY_CONFIGS, ids=lambda c: f"{c.method}-{c.execution}")
def test_boundary_parity(boundary, config):
    prob, b, x_ref = boundary
    report = solve(prob, b, config)
    check_report(report, config, prob.n)
    scale = np.linalg.norm(x_ref)
    assert np.linalg.norm(report.x - x_ref) / scale < 1e-6


def test_pcg_rejects_nonsymmetric(boundary):
    prob, b, _ = boundary
    with pytest.raises(ValueError, match="pcg.*symmetric.*pgmres"):
        solve(prob, b, SolveConfig(method="pcg"))
    # rejected up front: no factorization is ever built
    with pytest.raises(ValueError, match="pcg.*symmetric"):
        Solver(prob, method="pcg")


# ----------------------------------------------------------------------
# engine-path equivalence (the facade must not change numerics)
# ----------------------------------------------------------------------
def engine_solve(method: str, prob, b: np.ndarray):
    """The engine calls ``method`` wraps, spelled out at the default config.

    Returns the solution array for a one-application method and the
    Krylov result otherwise.
    """
    if method == "dense_lu":
        return PartialLU(dense_matrix(prob.kernel)).solve_left(b)
    if method in ("direct", "pcg", "pgmres"):
        pre = srs_factor(prob.kernel, tree=prob.factor_tree, opts=SRSOptions()).solve
    elif method == "block_jacobi":
        pre = BlockJacobiPreconditioner(prob.kernel, leaf_size=64, tree=prob.factor_tree).solve
    else:
        pre = None
    if method == "direct":
        return pre(b)
    if method in ("pcg", "cg") or (method == "block_jacobi" and prob.is_symmetric):
        return cg(prob.operator(), b, preconditioner=pre, tol=1e-12, maxiter=500)
    return gmres(prob.operator(), b, preconditioner=pre, tol=1e-12, restart=50, maxiter=500)


@pytest.mark.parametrize(
    "method, fixture",
    [
        ("direct", "volume"),
        ("pcg", "volume"),
        ("cg", "volume"),
        ("dense_lu", "volume"),
        ("pgmres", "boundary"),
        ("gmres", "boundary"),
        ("block_jacobi", "volume"),
        ("block_jacobi", "boundary"),
    ],
)
def test_method_matches_engine_bitwise(method, fixture, request):
    """Each method is bitwise its engine calls: the identity setup runs
    Krylov unpreconditioned, and block_jacobi picks CG exactly when the
    problem is symmetric."""
    prob, b, _ = request.getfixturevalue(fixture)
    ref = engine_solve(method, prob, b)
    report = solve(prob, b, SolveConfig(method=method))
    if isinstance(ref, np.ndarray):
        assert report.krylov is None
        assert np.array_equal(report.x, ref)
    else:
        assert np.array_equal(report.x, ref.x)
        assert report.iterations == ref.iterations
        assert report.krylov.residual_history == ref.residual_history


# ----------------------------------------------------------------------
# name validation
# ----------------------------------------------------------------------
def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown solve method 'bogus'.*direct"):
        SolveConfig(method="bogus")
    with pytest.raises(ValueError, match="unknown solve method"):
        validate_method("also-bogus")


def test_unknown_execution_rejected():
    with pytest.raises(ValueError, match="unknown execution 'bogus'.*sequential"):
        SolveConfig(execution="bogus")
    with pytest.raises(ValueError, match="unknown execution"):
        resolve_execution("bogus")


def test_sequential_only_methods_reject_parallel(volume):
    prob, b, _ = volume
    for method in ("dense_lu", "block_jacobi"):
        with pytest.raises(ValueError, match=f"{method}.*sequential"):
            solve(prob, b, SolveConfig(method=method, execution="thread"))


def test_available_methods_lists_builtins():
    assert set(available_methods()) == set(METHODS) == {
        "direct", "pcg", "pgmres", "dense_lu", "block_jacobi", "cg", "gmres"
    }


# ----------------------------------------------------------------------
# unpreconditioned Krylov baselines
# ----------------------------------------------------------------------
def test_unpreconditioned_cg_matches_reference(volume):
    prob, b, x_ref = volume
    report = solve(prob, b, SolveConfig(method="cg", tol=1e-12))
    assert report.method == "cg" and report.converged
    assert report.iterations > 0
    assert report.memory_bytes == 0  # identity preconditioner stores nothing
    assert np.linalg.norm(report.x - x_ref) / np.linalg.norm(x_ref) < 1e-9
    # unpreconditioned needs more iterations than RS-S-preconditioned
    pcg = solve(prob, b, SolveConfig(method="pcg", tol=1e-12))
    assert report.iterations >= pcg.iterations


def test_unpreconditioned_gmres_matches_reference(boundary):
    prob, b, x_ref = boundary
    report = solve(prob, b, SolveConfig(method="gmres", tol=1e-10))
    assert report.method == "gmres" and report.converged
    assert report.iterations > 0
    assert np.linalg.norm(report.x - x_ref) / np.linalg.norm(x_ref) < 1e-7


def test_cg_rejects_nonsymmetric(boundary):
    prob, b, _ = boundary
    with pytest.raises(ValueError, match="symmetric.*gmres"):
        solve(prob, b, SolveConfig(method="cg"))


def test_unpreconditioned_methods_are_sequential_only(volume):
    prob, b, _ = volume
    for method in ("cg", "gmres"):
        with pytest.raises(ValueError, match=f"{method}.*sequential"):
            solve(prob, b, SolveConfig(method=method, execution="thread"))


# ----------------------------------------------------------------------
# SolveReport.to_json
# ----------------------------------------------------------------------
def test_report_to_json_roundtrips(volume):
    import json

    prob, b, _ = volume
    report = solve(prob, b, SolveConfig(method="pcg", tol=1e-10))
    data = json.loads(report.to_json())
    assert data["method"] == "pcg"
    assert data["execution"] == "sequential"
    assert data["n"] == prob.n and data["nrhs"] == 1
    assert data["iterations"] == report.iterations
    assert data["converged"] is True
    assert data["relres"] == report.relres
    assert data["memory_bytes"] == report.memory_bytes
    assert data["residual_history"] == [float(r) for r in report.krylov.residual_history]
    # without relres evaluation the record is free (no operator apply)
    lazy = json.loads(
        solve(prob, b, SolveConfig(method="direct")).to_json(include_relres=False)
    )
    assert "relres" not in lazy and "residual_history" not in lazy


def test_report_to_json_parallel_fields(volume):
    import json

    prob, b, _ = volume
    report = solve(prob, b, SolveConfig(execution="thread", ranks=4))
    data = json.loads(report.to_json(include_relres=False))
    assert data["execution"] == "thread"
    assert data["sim_t_fact"] > 0
    assert data["messages"] > 0 and data["comm_bytes"] > 0


# ----------------------------------------------------------------------
# problem protocol + Solver caching
# ----------------------------------------------------------------------
def test_check_problem_names_missing_members():
    class NotAProblem:
        pass

    with pytest.raises(TypeError, match="kernel"):
        check_problem(NotAProblem())
    with pytest.raises(TypeError, match="Problem"):
        solve(NotAProblem(), np.zeros(3))


def test_problem_base_defaults(volume):
    prob, _, _ = volume
    assert prob.factor_tree is None
    assert prob.parallel_domain is None
    assert prob.is_symmetric
    assert callable(prob.operator())
    # ProblemBase fallback rhs on a minimal custom problem
    class Custom(ProblemBase):
        def __init__(self, kernel):
            self.kernel = kernel
            self.matvec = lambda x: x

        @property
        def n(self):
            return self.kernel.n

    c = Custom(prob.kernel)
    check_problem(c)
    assert c.random_rhs(seed=1, nrhs=2).shape == (prob.n, 2)
    assert c.default_rhs().shape == (prob.n,)


def test_solver_caches_factorization(volume):
    prob, b, _ = volume
    solver = Solver(prob, method="pcg", tol=1e-10)
    r1 = solver.solve(b)
    fact = solver.factorization
    r2 = solver.solve(prob.random_rhs(seed=7), tol=1e-6)
    assert solver.factorization is fact  # tolerance refinement reuses it
    assert solver.setup_time is not None and solver.setup_time > 0
    assert r1.t_setup == 0.0 and r2.t_setup == 0.0
    assert r2.config.tol == 1e-6 and solver.config.tol == 1e-10
    assert r1.converged and r2.converged


def test_solve_default_rhs_and_overrides(volume):
    prob, _, _ = volume
    report = solve(prob, method="pcg", tol=1e-8, maxiter=50)
    assert report.converged
    assert report.config.tol == 1e-8


def test_rhs_shape_mismatch_rejected(volume):
    prob, _, _ = volume
    with pytest.raises(ValueError, match="rows"):
        solve(prob, np.zeros(7))


def test_multiple_rhs_block(volume):
    prob, _, _ = volume
    B = prob.random_rhs(seed=5, nrhs=3)
    report = solve(prob, B)
    assert report.x.shape == B.shape


@pytest.mark.parametrize("method", ["pgmres", "gmres"])
def test_gmres_block_rhs_runs_column_by_column(method):
    """GMRES refines each column of an ``(N, nrhs)`` block to its own
    ``tol``: a column 1e6 times the other is not judged against their
    joint norm, and each column is its single-rhs solve."""
    prob = repro.ScatteringProblem(16, 5.0)
    B = prob.random_rhs(seed=1, nrhs=2)
    B[:, 1] *= 1e6
    tol = 1e-12
    report = solve(prob, B, SolveConfig(method=method, tol=tol))
    assert report.x.shape == B.shape and report.converged
    singles = [solve(prob, B[:, i], SolveConfig(method=method, tol=tol)) for i in range(2)]
    assert report.iterations == max(s.iterations for s in singles)
    for i, single in enumerate(singles):
        assert prob.relres(report.x[:, i], B[:, i]) <= tol
        err = np.linalg.norm(report.x[:, i] - single.x) / np.linalg.norm(single.x)
        assert err <= 1e-13


def test_gmres_promotes_a_real_rhs_of_a_complex_problem():
    """A real rhs of a complex operator is refined in complex
    arithmetic, not truncated to the real part of every direction."""
    prob = repro.ScatteringProblem(16, 5.0)
    b = prob.random_rhs(seed=1).real
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(prob, b, SolveConfig(method="pgmres", tol=1e-12))
    assert report.converged and report.iterations <= 3
    assert report.relres <= 1e-12


# ----------------------------------------------------------------------
# auto execution
# ----------------------------------------------------------------------
def test_auto_execution_resolves(volume):
    prob, b, _ = volume
    assert resolve_execution("auto") in ("thread", "process")
    report = solve(prob, b, SolveConfig(execution="auto", ranks=4))
    assert report.execution in ("thread", "process")
    check_report(report, SolveConfig(execution="auto", ranks=4), prob.n)


def test_auto_env_backend(monkeypatch):
    from repro.util.config import vmpi_backend
    from repro.vmpi.backend import auto_backend_name, resolve_backend

    monkeypatch.setenv("REPRO_VMPI_BACKEND", "auto")
    assert vmpi_backend() == "auto"
    assert resolve_backend(None).name == auto_backend_name()
    assert resolve_backend("auto").name in ("thread", "process")


# ----------------------------------------------------------------------
# concurrent solves on one setup product (INVARIANTS.md)
# ----------------------------------------------------------------------
_CONCURRENT_SOLVES = dedent(
    """
    import sys
    import threading

    import numpy as np

    import repro
    from repro.api.config import METHODS
    from repro.api.strategies import setup

    kind = sys.argv[1]
    method = next(name for name, row in METHODS.items() if row.setup == kind)
    prob = repro.LaplaceVolumeProblem(m=24)
    fact = setup(prob, repro.SolveConfig(method=method))
    rhs = [prob.random_rhs(seed=t) for t in range(4)]
    serial = [fact.solve(b) for b in rhs]
    start = threading.Barrier(4)
    wrong = []

    def solver(t):
        start.wait()
        for _ in range(100):
            if not np.array_equal(fact.solve(rhs[t]), serial[t]):
                wrong.append(t)

    threads = [threading.Thread(target=solver, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    print(f"{len(wrong)} of 400 solves differ from the serial x")
    sys.exit(1 if wrong else 0)
    """
)


@pytest.mark.parametrize("kind", sorted({row.setup for row in METHODS.values()}))
def test_concurrent_solves_on_one_setup_product_are_bitwise_serial(kind):
    """Four threads, 100 solves each, each thread on its own rhs, all on
    one setup product: every ``x`` is bitwise the serial solve's. The
    threads run in a child interpreter, so heap corruption in a solve
    fails this test with the child's exit code instead of killing pytest."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _CONCURRENT_SOLVES, kind],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        cwd=root,
    )
    assert proc.returncode == 0, (
        f"exit code {proc.returncode}: {proc.stdout.strip()} {proc.stderr[-2000:]}"
    )


class _PlantedKernel:
    """A 4 x 4 kernel that is the identity but for one planted entry."""

    n = 4

    def __init__(self, value):
        self.value = value

    def block(self, rows, cols):
        A = np.eye(self.n)
        A[0, 1] = self.value
        return A[np.ix_(rows, cols)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dense_lu_rejects_a_non_finite_matrix(value):
    """A NaN or inf in the assembled matrix fails the setup, not every
    later solve."""
    from repro.api import DenseLUFactorization

    with pytest.raises(ValueError, match="NaN or inf"):
        DenseLUFactorization(_PlantedKernel(value))
    x = DenseLUFactorization(_PlantedKernel(0.5)).solve(np.ones(4))
    assert np.allclose(x, [0.5, 1.0, 1.0, 1.0])
