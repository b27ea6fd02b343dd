"""Tests for the Lippmann-Schwinger scattering application (Sec. V-B)."""

import numpy as np
import pytest

import repro
from repro.apps import ScatteringProblem, plane_wave
from repro.core import SRSOptions


@pytest.fixture(scope="module")
def prob():
    return ScatteringProblem(24, 10.0)


@pytest.fixture(scope="module")
def fact(prob):
    return repro.Solver(prob, srs=SRSOptions(tol=1e-6, leaf_size=36)).factorization


def pgmres(prob, fact, b):
    """Preconditioned GMRES(50) to 1e-12 (Tables IV/V ``nit``)."""
    return repro.solve(
        prob, b, method="pgmres", tol=1e-12, restart=50, maxiter=500, factorization=fact
    )


def test_plane_wave_properties():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    u = plane_wave(pts, 2 * np.pi)
    assert np.allclose(np.abs(u), 1.0)
    assert u[0] == pytest.approx(1.0)
    assert u[1] == pytest.approx(np.exp(2j * np.pi))
    assert u[2] == pytest.approx(1.0)  # direction is x


def test_direct_solve_second_kind_accuracy(prob, fact):
    """Second-kind IE: relres tracks eps closely (Table VI rows)."""
    b = prob.rhs()
    mu = fact.solve(b)
    assert prob.relres(mu, b) < 1e-4


def test_pgmres_few_iterations(prob, fact):
    """Paper Table IV: ~3 preconditioned GMRES iterations to 1e-12."""
    b = prob.rhs()
    res = pgmres(prob, fact, b)
    assert res.converged
    assert res.iterations <= 6


def test_unpreconditioned_gmres_much_slower(prob, fact):
    """Table V: unpreconditioned GMRES(20) needs many more iterations.

    At this scaled-down kappa the contrast is a factor of a few; the
    paper's orders-of-magnitude gap appears at higher frequency (the
    Table 5 bench sweeps kappa ~ sqrt(N)).
    """
    b = prob.rhs()
    pre = pgmres(prob, fact, b)
    plain = repro.solve(prob, b, method="gmres", tol=1e-8, restart=20, maxiter=3000)
    assert plain.iterations > 2 * max(pre.iterations, 1)


def test_total_field_satisfies_equation(prob, fact):
    """sigma = -kappa^2 b u  must hold for the computed total field."""
    b = prob.rhs()
    mu = pgmres(prob, fact, b).x
    u = prob.total_field(mu)
    sigma = prob.sigma_from_mu(mu)
    resid = np.linalg.norm(sigma + prob.kappa**2 * prob.b * u) / np.linalg.norm(sigma)
    assert resid < 1e-8


def test_field_grids_shape(prob, fact):
    mu = fact.solve(prob.rhs())
    assert prob.field_magnitude_grid(mu).shape == (24, 24)
    assert prob.potential_grid().shape == (24, 24)
    assert prob.potential_grid().max() <= 1.0


def test_shadow_side_differs_from_lit_side(prob, fact):
    """Scattering must break left-right symmetry of |u| (Fig. 7b)."""
    mu = pgmres(prob, fact, prob.rhs()).x
    mag = prob.field_magnitude_grid(mu)
    left = mag[:6, :].mean()
    right = mag[-6:, :].mean()
    assert abs(left - right) > 1e-3


def test_increasing_frequency_constructor():
    prob = ScatteringProblem.increasing_frequency(16, points_per_wavelength=32.0)
    assert prob.kernel.points_per_wavelength() == pytest.approx(32.0)
    # paper's Table V: kappa = pi sqrt(N) / 16 at 32 points per wavelength
    assert prob.kappa == pytest.approx(np.pi * 16 / 16)


def test_random_rhs_complex(prob):
    b = prob.random_rhs(nrhs=2)
    assert b.shape == (prob.n, 2)
    assert np.iscomplexobj(b)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        ScatteringProblem(2, 5.0)
    with pytest.raises(ValueError):
        ScatteringProblem(16, -1.0)
