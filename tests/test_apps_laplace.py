"""Tests for the Laplace volume-IE application (paper Sec. V-A)."""

import numpy as np
import pytest

import repro
from repro.apps import LaplaceVolumeProblem
from repro.core import SRSOptions

OPTS = SRSOptions(tol=1e-6, leaf_size=64)


@pytest.fixture(scope="module")
def prob():
    return LaplaceVolumeProblem(32)


@pytest.fixture(scope="module")
def fact(prob):
    return repro.Solver(prob, srs=OPTS).factorization


def test_setup(prob):
    assert prob.n == 1024
    assert prob.h == pytest.approx(1.0 / 32)


def test_direct_solve_accuracy(prob, fact):
    b = prob.random_rhs()
    x = fact.solve(b)
    # Table III: relres ~ 1e-4..1e-3 at eps = 1e-6 for the first-kind IE
    assert prob.relres(x, b) < 1e-2


def test_pcg_constant_iterations(prob, fact):
    """Paper: PCG reaches 1e-12 in ~4-6 iterations at eps = 1e-6."""
    b = prob.random_rhs()
    res = repro.solve(prob, b, method="pcg", tol=1e-12, maxiter=500, factorization=fact)
    assert res.converged
    assert res.iterations <= 10
    assert prob.relres(res.x, b) < 1e-11


def test_unpreconditioned_cg_much_slower(prob, fact):
    """Paper: plain CG needs ~5 sqrt(N) iterations."""
    b = prob.random_rhs()
    pre = repro.solve(prob, b, method="pcg", tol=1e-12, maxiter=500, factorization=fact)
    plain = repro.solve(prob, b, method="cg", tol=1e-12, maxiter=5000)
    assert plain.iterations > 10 * pre.iterations
    # 5 sqrt(N) = 160 at N = 1024; allow generous band
    assert 50 <= plain.iterations <= 1000


def test_rhs_reproducible(prob):
    assert np.array_equal(prob.random_rhs(seed=3), prob.random_rhs(seed=3))
    assert prob.random_rhs(nrhs=4).shape == (prob.n, 4)


def test_invalid_size():
    with pytest.raises(ValueError):
        LaplaceVolumeProblem(2)


def test_pcg_iterations_roughly_constant_in_n():
    """Table III: nit stays ~4-6 as N grows."""
    nits = []
    for m in (16, 32):
        p = LaplaceVolumeProblem(m)
        report = repro.solve(p, p.random_rhs(), method="pcg", tol=1e-12, maxiter=500, srs=OPTS)
        nits.append(report.iterations)
    assert abs(nits[1] - nits[0]) <= 3
