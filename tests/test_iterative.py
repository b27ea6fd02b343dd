"""Tests for CG and GMRES."""

import numpy as np
import pytest

from repro.iterative import cg, gmres


@pytest.fixture
def spd():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    return q @ np.diag(np.linspace(1, 50, 80)) @ q.T


def test_cg_converges_spd(spd, rng):
    b = rng.standard_normal(80)
    res = cg(lambda v: spd @ v, b, tol=1e-12)
    assert res.converged
    assert np.linalg.norm(spd @ res.x - b) / np.linalg.norm(b) < 1e-11


def test_cg_iteration_count_scales_with_sqrt_condition(rng):
    q, _ = np.linalg.qr(rng.standard_normal((100, 100)))
    counts = []
    for cond in (10.0, 1000.0):
        a = q @ np.diag(np.geomspace(1, cond, 100)) @ q.T
        b = rng.standard_normal(100)
        counts.append(cg(lambda v, a=a: a @ v, b, tol=1e-10).iterations)
    assert counts[1] > 2 * counts[0]


def test_pcg_exact_preconditioner_one_iteration(spd, rng):
    b = rng.standard_normal(80)
    res = cg(lambda v: spd @ v, b, preconditioner=lambda v: np.linalg.solve(spd, v), tol=1e-12)
    assert res.converged and res.iterations <= 2


def test_cg_zero_rhs(spd):
    res = cg(lambda v: spd @ v, np.zeros(80))
    assert res.converged and res.iterations == 0


def test_cg_with_initial_guess(spd, rng):
    b = rng.standard_normal(80)
    x_true = np.linalg.solve(spd, b)
    res = cg(lambda v: spd @ v, b, x0=x_true, tol=1e-10)
    assert res.iterations == 0 and res.converged


def test_cg_residual_history_decreasing_tail(spd, rng):
    b = rng.standard_normal(80)
    res = cg(lambda v: spd @ v, b, tol=1e-12)
    assert res.residual_history[-1] < res.residual_history[0]
    assert res.final_residual <= 1e-12


def test_cg_maxiter_not_converged(spd, rng):
    b = rng.standard_normal(80)
    res = cg(lambda v: spd @ v, b, tol=1e-14, maxiter=2)
    assert not res.converged and res.iterations == 2


def test_cg_integer_rhs_promotes():
    """An integer rhs must not silently run integer arithmetic."""
    b = np.array([2, 4, 6])
    res = cg(lambda v: 2.0 * v, b, tol=1e-14)
    assert res.x.dtype == np.float64
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 2.0, 3.0])
    zero = cg(lambda v: 2.0 * v, np.zeros(3, dtype=np.int64))
    assert zero.x.dtype == np.float64


def test_cg_semidefinite_breakdown_is_finite():
    """A numerically-zero curvature ``p* A p`` must stop the iteration,
    not divide through and blow up (exact ``denom == 0`` misses it)."""
    tiny = 1e-20
    # antisymmetric part contributes exactly 0 to p* A p; the tiny
    # symmetric part leaves a denominator far below eps * |p| |Ap|
    a = np.array([[tiny, 1.0], [-1.0, tiny]])
    b = np.array([1.0, 1.0])
    res = cg(lambda v: a @ v, b, tol=1e-14, maxiter=10)
    assert not res.converged
    assert res.iterations == 0
    assert np.all(np.isfinite(res.x))
    assert all(np.isfinite(h) for h in res.residual_history)


def test_cg_exact_zero_denominator_breakdown():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])  # semi-definite
    res = cg(lambda v: a @ v, np.array([0.0, 1.0]), tol=1e-14, maxiter=10)
    assert not res.converged and np.all(np.isfinite(res.x))


# -- GMRES -------------------------------------------------------------
@pytest.fixture
def complex_system(rng):
    n = 60
    a = 4 * np.eye(n) + 0.5 * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / np.sqrt(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, b


def test_gmres_converges_complex(complex_system):
    a, b = complex_system
    res = gmres(lambda v: a @ v, b, tol=1e-12, restart=30)
    assert res.converged
    assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) < 1e-11


def test_gmres_restart_still_converges(complex_system):
    a, b = complex_system
    res = gmres(lambda v: a @ v, b, tol=1e-10, restart=5)
    assert res.converged
    assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) < 1e-9


def test_right_preconditioning_reports_true_residual(complex_system):
    a, b = complex_system
    res = gmres(
        lambda v: a @ v, b, preconditioner=lambda v: np.linalg.solve(a, v), tol=1e-12
    )
    assert res.converged and res.iterations <= 2
    assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) < 1e-11


def test_gmres_real_system(rng):
    n = 50
    a = 3 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    res = gmres(lambda v: a @ v, b, tol=1e-11, restart=25)
    assert res.converged
    assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) < 1e-10


def test_gmres_zero_rhs():
    res = gmres(lambda v: v, np.zeros(10))
    assert res.converged and res.iterations == 0


def test_gmres_maxiter_cap(complex_system):
    a, b = complex_system
    res = gmres(lambda v: a @ v, b, tol=1e-15, maxiter=3, restart=20)
    assert res.iterations <= 3


def test_gmres_invalid_restart(complex_system):
    a, b = complex_system
    with pytest.raises(ValueError):
        gmres(lambda v: a @ v, b, restart=0)


def test_gmres_happy_breakdown_identity():
    """A = I: the Krylov space is 1-dimensional; the Arnoldi loop must
    stop at the breakdown instead of iterating on an uninitialized
    basis column."""
    b = np.arange(1.0, 9.0)
    res = gmres(lambda v: v.copy(), b, tol=1e-12, restart=5)
    assert res.converged
    assert res.iterations == 1
    assert np.all(np.isfinite(res.x))
    np.testing.assert_allclose(res.x, b, rtol=1e-14)


def test_gmres_happy_breakdown_invariant_subspace():
    """rhs spanning two eigenvectors: exact solution (and breakdown)
    after two inner iterations, well inside the restart window."""
    d = np.array([2.0, 5.0, 7.0, 11.0, 3.0])
    b = np.zeros(5)
    b[0], b[2] = 3.0, -4.0  # invariant 2-dimensional subspace
    res = gmres(lambda v: d * v, b, tol=1e-13, restart=5, maxiter=50)
    assert res.converged
    assert res.iterations == 2
    np.testing.assert_allclose(res.x, b / d, rtol=1e-12)
    assert all(np.isfinite(h) for h in res.residual_history)


def test_gmres_breakdown_with_zero_tol_terminates():
    """Breakdown must exit the inner loop even when ``tol`` is
    unreachable — iterating past it would read the uninitialized
    ``basis[:, j+1]`` column."""
    b = np.ones(4)  # |b| = 2 exactly, so Arnoldi breaks down exactly
    res = gmres(lambda v: v.copy(), b, tol=0.0, restart=4, maxiter=16)
    assert np.all(np.isfinite(res.x))
    np.testing.assert_allclose(res.x, b, rtol=1e-14)


def test_gmres_singular_operator_no_crash():
    """Breakdown with a singular Hessenberg (rank-deficient A, rhs
    touching the nullspace) must return not-converged, not raise
    LinAlgError from the triangular solve, and not spin to maxiter."""
    res = gmres(lambda v: np.zeros_like(v), np.ones(4), tol=1e-12, maxiter=100)
    assert not res.converged
    assert res.iterations <= 2
    assert np.all(np.isfinite(res.x))

    a = np.diag([1.0, 0.0])
    res = gmres(lambda v: a @ v, np.array([0.0, 1.0]), tol=1e-12, maxiter=100)
    assert not res.converged
    assert np.all(np.isfinite(res.x))


def test_gmres_singular_operator_consistent_rhs():
    """Rank-deficient but consistent system: the minimum-norm Krylov
    solution still solves it."""
    a = np.diag([2.0, 3.0, 0.0])
    b = np.array([4.0, 9.0, 0.0])
    res = gmres(lambda v: a @ v, b, tol=1e-12, maxiter=100)
    assert res.converged
    np.testing.assert_allclose(res.x[:2], [2.0, 3.0], rtol=1e-12)


def test_gmres_matches_scipy(complex_system):
    import scipy.sparse.linalg as spla

    a, b = complex_system
    ours = gmres(lambda v: a @ v, b, tol=1e-10, restart=20)
    op = spla.LinearOperator(a.shape, matvec=lambda v: a @ v, dtype=complex)
    theirs, info = spla.gmres(op, b, rtol=1e-10, restart=20)
    assert info == 0
    assert np.linalg.norm(ours.x - theirs) / np.linalg.norm(theirs) < 1e-6


# -- GMRES application counts ------------------------------------------
class Counted:
    """An operator that counts its applications."""

    def __init__(self, apply):
        self.apply, self.calls = apply, 0

    def __call__(self, v):
        self.calls += 1
        return self.apply(v)


@pytest.fixture
def preconditioned_system(complex_system, rng):
    """A complex system and an approximate inverse that leaves ~12
    preconditioned iterations to 1e-13."""
    a, b = complex_system
    p = np.linalg.inv(a + 0.3 * np.diag(rng.standard_normal(a.shape[0])))
    return a, p, b


def cycles(res) -> int:
    """Restart cycles run: the history holds the start residual, one
    estimate per iteration and one true residual per cycle."""
    return len(res.residual_history) - 1 - res.iterations


def test_gmres_applies_preconditioner_and_operator_once_per_iteration(preconditioned_system):
    a, p, b = preconditioned_system
    op, pre = Counted(lambda v: a @ v), Counted(lambda v: p @ v)
    res = gmres(op, b, preconditioner=pre, tol=1e-13, restart=3)
    assert res.converged and res.iterations > 3
    assert cycles(res) == -(-res.iterations // 3)
    assert pre.calls == res.iterations
    assert op.calls == res.iterations + cycles(res)
    assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) <= 1e-13

    # a given initial guess costs one operator application more
    op.calls = pre.calls = 0
    x0 = np.full_like(b, 0.1)
    res = gmres(op, b, preconditioner=pre, tol=1e-13, restart=3, x0=x0)
    assert res.converged
    assert pre.calls == res.iterations
    assert op.calls == res.iterations + cycles(res) + 1


def test_unpreconditioned_gmres_applies_the_operator_once_per_iteration(complex_system):
    a, b = complex_system
    op = Counted(lambda v: a @ v)
    res = gmres(op, b, tol=1e-13, restart=5)
    assert res.converged and res.iterations > 5
    assert op.calls == res.iterations + cycles(res)


@pytest.mark.parametrize("preconditioned", [False, True])
def test_gmres_stops_close_with_one_true_residual(preconditioned, preconditioned_system):
    """A happy breakdown and a ``maxiter`` stop each end with exactly
    one true-residual application, not one per exit path."""
    b = np.ones(4)  # |b| = 2 exactly, so Arnoldi breaks down exactly
    op = Counted(lambda v: v.copy())
    pre = Counted(lambda v: v.copy()) if preconditioned else None
    res = gmres(op, b, preconditioner=pre, tol=0.0, restart=4, maxiter=16)
    assert res.iterations == 1 and cycles(res) == 1
    assert op.calls == 2
    assert pre is None or pre.calls == 1
    np.testing.assert_allclose(res.x, b, rtol=1e-14)

    a, p, b = preconditioned_system
    op = Counted(lambda v: a @ v)
    pre = Counted(lambda v: p @ v) if preconditioned else None
    res = gmres(op, b, preconditioner=pre, tol=1e-15, restart=5, maxiter=7)
    assert not res.converged and res.iterations == 7 and cycles(res) == 2
    assert op.calls == 9
    assert pre is None or pre.calls == 7


def test_preconditioned_arnoldi_is_gmres_on_the_composed_operator(preconditioned_system):
    """Right preconditioning runs GMRES on ``A M^{-1}`` bit for bit:
    only the closing true residual, of ``A x = b`` rather than of
    ``A M^{-1} y = b``, may differ."""
    a, p, b = preconditioned_system
    res = gmres(lambda v: a @ v, b, preconditioner=lambda v: p @ v, tol=1e-13, restart=40)
    composed = gmres(lambda v: a @ (p @ v), b, tol=1e-13, restart=40)
    assert res.iterations == composed.iterations < 40
    assert res.residual_history[:-1] == composed.residual_history[:-1]
    np.testing.assert_allclose(res.x, p @ composed.x, rtol=1e-12)
