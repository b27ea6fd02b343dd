"""Content-fingerprint tests: equal operators hash equal, perturbed don't.

The serving cache's correctness rests on the fingerprint being a
*content* hash: two independently constructed problems over identical
geometry/kernel parameters must collide (so callers share one
factorization), and any perturbation — point set, kernel scalar, tree
depth, solve options — must not (so nobody gets someone else's
inverse).
"""

import numpy as np
import pytest

from repro.api import SolveConfig
from repro.api.fingerprint import fingerprint_kernel, fingerprint_problem
from repro.api.strategies import setup_key
from repro.apps import LaplaceVolumeProblem, ScatteringProblem
from repro.bie import Circle, InteriorDirichletProblem, StarCurve
from repro.core import SRSOptions
from repro.geometry import uniform_grid
from repro.kernels import GaussianKernelMatrix, LaplaceKernelMatrix


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------
def test_equal_volume_problems_hash_identically():
    assert LaplaceVolumeProblem(24).fingerprint() == LaplaceVolumeProblem(24).fingerprint()


def test_grid_size_perturbs_fingerprint():
    assert LaplaceVolumeProblem(24).fingerprint() != LaplaceVolumeProblem(25).fingerprint()


def test_kernel_scalar_perturbs_fingerprint():
    assert (
        ScatteringProblem(16, 10.0).fingerprint()
        != ScatteringProblem(16, 10.5).fingerprint()
    )


def test_problem_class_reaches_fingerprint():
    """Same n, different workload class: never interchangeable."""
    assert (
        LaplaceVolumeProblem(16).fingerprint()
        != ScatteringProblem(16, 9.0).fingerprint()
    )


def test_equal_bie_problems_hash_identically():
    star = lambda: StarCurve(radius=1.0, amplitude=0.3, arms=5)  # noqa: E731
    assert (
        InteriorDirichletProblem(star(), 256).fingerprint()
        == InteriorDirichletProblem(star(), 256).fingerprint()
    )


def test_perturbed_curve_perturbs_fingerprint():
    a = InteriorDirichletProblem(StarCurve(amplitude=0.3), 256)
    b = InteriorDirichletProblem(StarCurve(amplitude=0.31), 256)
    c = InteriorDirichletProblem(Circle(), 256)
    assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


def test_fingerprint_memoized_and_stable():
    prob = LaplaceVolumeProblem(16)
    fp = prob.fingerprint()
    assert prob.fingerprint() is fp  # memoized on the instance
    assert fp == fingerprint_problem(prob)  # and equal to a fresh hash


def test_fingerprint_is_hexdigest():
    fp = LaplaceVolumeProblem(16).fingerprint()
    assert isinstance(fp, str)
    int(fp, 16)
    assert len(fp) == 32  # blake2b-128


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def test_kernel_points_perturbation_detected():
    pts = uniform_grid(12)
    k1 = LaplaceKernelMatrix(pts, 1 / 12)
    moved = pts.copy()
    moved[7, 0] += 1e-9
    k2 = LaplaceKernelMatrix(moved, 1 / 12)
    assert fingerprint_kernel(k1) != fingerprint_kernel(k2)


def test_offdiagonal_only_scalar_detected():
    """The probe block catches parameters invisible to diag/weights."""
    pts = uniform_grid(12)
    k1 = GaussianKernelMatrix(pts, 1 / 12, sigma=0.1)
    k2 = GaussianKernelMatrix(pts, 1 / 12, sigma=0.2)
    assert np.array_equal(k1.diagonal(), k2.diagonal())  # the trap
    assert fingerprint_kernel(k1) != fingerprint_kernel(k2)


# ----------------------------------------------------------------------
# config setup keys
# ----------------------------------------------------------------------
def test_srs_strategies_share_setup_key():
    """direct/pcg/pgmres build the same RS-S product: one cache entry."""
    assert (
        setup_key(SolveConfig(method="direct"))
        == setup_key(SolveConfig(method="pcg"))
        == setup_key(SolveConfig(method="pgmres"))
    )


def test_refinement_fields_stay_out_of_setup_key():
    base = setup_key(SolveConfig(method="pcg"))
    assert base == setup_key(
        SolveConfig(method="pcg", tol=1e-4, maxiter=7, restart=3)
    )


def test_srs_options_reach_setup_key():
    base = setup_key(SolveConfig())
    assert base != setup_key(SolveConfig(srs=SRSOptions(tol=1e-9)))
    assert base != setup_key(SolveConfig(srs=SRSOptions(leaf_size=32)))
    # every SRSOptions field enters the key, the sweep mode included
    assert base != setup_key(SolveConfig(srs=SRSOptions(factor_mode="batched")))


def test_execution_reaches_setup_key():
    seq = setup_key(SolveConfig())
    par = setup_key(SolveConfig(execution="thread", ranks=4))
    proc = setup_key(SolveConfig(execution="process", ranks=4))
    assert len({seq, par, proc}) == 3
    # ranks=None normalizes to the default rank count
    assert setup_key(SolveConfig(execution="thread")) == setup_key(
        SolveConfig(execution="thread", ranks=4)
    )


def test_non_srs_methods_have_distinct_families():
    assert setup_key(SolveConfig(method="cg")) == setup_key(SolveConfig(method="gmres"))
    assert setup_key(SolveConfig(method="dense_lu")) != setup_key(
        SolveConfig(method="direct")
    )
    assert setup_key(SolveConfig(method="block_jacobi")) != setup_key(
        SolveConfig(method="direct")
    )


_DEFAULT_SRS_KEY = (
    ("tol", 1e-06),
    ("leaf_size", 64),
    ("proxy_radius_factor", 2.5),
    ("n_proxy", 64),
    ("factor_mode", "strict"),
)


_PINNED_KEYS = [
    ("direct", "sequential", ("srs", "sequential", None, _DEFAULT_SRS_KEY)),
    ("pcg", "sequential", ("srs", "sequential", None, _DEFAULT_SRS_KEY)),
    ("pgmres", "sequential", ("srs", "sequential", None, _DEFAULT_SRS_KEY)),
    ("pcg", "thread", ("srs", "thread", 4, _DEFAULT_SRS_KEY)),
    ("cg", "sequential", ("identity",)),
    ("gmres", "sequential", ("identity",)),
    ("dense_lu", "sequential", ("dense_lu",)),
    ("block_jacobi", "sequential", ("block_jacobi", 64)),
]


@pytest.mark.parametrize(
    "method, execution, key", _PINNED_KEYS, ids=[f"{m}-{e}" for m, e, _ in _PINNED_KEYS]
)
def test_setup_key_is_pinned(method, execution, key):
    """Setup keys are literal tuples that must never drift: the store
    names spill files by a hash of ``repr`` of the key, so a changed key
    orphans every spill file written before the change."""
    assert setup_key(SolveConfig(method=method, execution=execution)) == key


def test_bare_protocol_problem_falls_back():
    """problem_fingerprint works without a fingerprint() method."""
    from repro.api.fingerprint import problem_fingerprint

    prob = LaplaceVolumeProblem(12)

    class Bare:
        kernel = prob.kernel
        n = prob.n
        is_symmetric = True
        factor_tree = None
        parallel_domain = None

        def operator(self):
            return prob.matvec

        def default_rhs(self):
            return prob.default_rhs()

        def random_rhs(self, seed=0, nrhs=1):
            return prob.random_rhs(seed, nrhs)

        def relres(self, x, b):
            return prob.relres(x, b)

    fp1, fp2 = problem_fingerprint(Bare()), problem_fingerprint(Bare())
    assert fp1 == fp2
