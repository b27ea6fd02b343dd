"""The solve-phase sweeps: exact inverses, block parity, shared safely.

``repro.core.skel.sweep_up`` / ``sweep_down`` are the one implementation
behind the sequential, shared-memory and distributed solves; these
tests pin what every caller relies on, not how the loop is written.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps import LaplaceVolumeProblem
from repro.core import BoxRecord, SRSOptions, skel, srs_factor
from repro.core.skel import sweep_down, sweep_up, unsweep_down, unsweep_up
from repro.geometry import uniform_grid
from repro.kernels import (
    GaussianKernelMatrix,
    HelmholtzKernelMatrix,
    LaplaceKernelMatrix,
)
from repro.kernels.helmholtz import gaussian_bump


def _kernel(name: str, m: int):
    pts = uniform_grid(m)
    if name == "laplace":
        return LaplaceKernelMatrix(pts, 1.0 / m)
    if name == "gaussian":
        return GaussianKernelMatrix(pts, 1.0 / m, sigma=0.05, shift=1.0)
    return HelmholtzKernelMatrix(pts, 1.0 / m, 6.0, b=gaussian_bump(pts))


def _relerr(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    name=st.sampled_from(["laplace", "gaussian", "helmholtz"]),
    m=st.sampled_from([8, 12, 16]),
    leaf_size=st.sampled_from([9, 16, 36, 64]),
    tol=st.sampled_from([1e-3, 1e-6, 1e-10]),
    mode=st.sampled_from(["strict", "batched"]),
    seed=st.integers(0, 2**16),
)
def test_sweeps_invert_exactly_and_blocks_match_columns(name, m, leaf_size, tol, mode, seed):
    """Whatever was factored, however loosely: ``solve`` undoes ``matvec``
    to rounding, and a block solve is its columns solved one by one up
    to GEMM-vs-GEMV rounding (the parity README documents for the
    service's coalesced batches)."""
    kernel = _kernel(name, m)
    fact = srs_factor(kernel, opts=SRSOptions(tol=tol, leaf_size=leaf_size, factor_mode=mode))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((kernel.n, 3))
    if np.dtype(kernel.dtype).kind == "c":
        x = x + 1j * rng.standard_normal(x.shape)

    assert _relerr(fact.solve(fact.matvec(x)), x) < 1e-10
    assert _relerr(fact.solve(fact.matvec(x[:, 0])), x[:, 0]) < 1e-10

    block = fact.solve(x)
    for j in range(x.shape[1]):
        assert _relerr(block[:, j], fact.solve(x[:, j])) < 1e-11

    # a complex right-hand side on a real factorization is its two real
    # halves, solved by the same real blocks
    if np.dtype(kernel.dtype).kind != "c":
        z = x[:, 0] + 1j * x[:, 1]
        got = fact.solve(z)
        assert got.dtype == np.complex128
        assert _relerr(got, fact.solve(x[:, 0]) + 1j * fact.solve(x[:, 1])) < 1e-11
        assert _relerr(fact.solve(fact.matvec(z)), z) < 1e-10


def test_sweep_pairs_are_exact_inverses_record_by_record(laplace32_fact):
    """Each sweep is undone by its ``unsweep`` on any slice of records —
    what lets the distributed solve run them a rank's level at a time."""
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((laplace32_fact.n, 2))
    part = laplace32_fact.records[3:11]
    x = x0.copy()
    updates = sweep_up(part, x, collect=True)
    assert [rec for rec, _ in updates] == [rec for rec in part if rec.cluster.size]
    unsweep_up(part, x)
    assert _relerr(x, x0) < 1e-12
    sweep_down(part, x)
    unsweep_down(part, x)
    assert _relerr(x, x0) < 1e-12


def test_collected_updates_are_what_the_sweep_subtracted(laplace32_fact):
    rng = np.random.default_rng(4)
    rec = next(r for r in laplace32_fact.records if r.cluster.size and r.skeleton.size)
    x = rng.standard_normal(laplace32_fact.n)
    before = x[rec.cluster].copy()
    ((got_rec, update),) = sweep_up([rec], x, collect=True)
    assert got_rec is rec
    np.testing.assert_array_equal(before - update, x[rec.cluster])


@pytest.fixture(scope="module")
def helmholtz24_fact(helmholtz24):
    return srs_factor(helmholtz24, opts=SRSOptions(tol=1e-9, leaf_size=36))


@pytest.fixture
def trtrs_calls(monkeypatch):
    """Every ``?trtrs`` call the sweeps (and ``eliminate_box``) make."""
    calls: list[str] = []
    lookup = skel.trtrs_for

    def counting(dtype):
        trtrs = lookup(dtype)

        def counted(*args, **kwargs):
            calls.append("L" if kwargs.get("lower") else "U")
            return trtrs(*args, **kwargs)

        return counted

    monkeypatch.setattr(skel, "trtrs_for", counting)
    return calls


@pytest.mark.parametrize("which", ["laplace32_fact", "helmholtz24_fact"])
def test_a_solve_makes_two_triangular_solves_per_box(which, request, trtrs_calls):
    """The multipliers the factor stores leave one ``L^{-1}`` going up and
    one ``U^{-1}`` coming down per box with redundant indices, whatever
    the right-hand side: a vector, a block, complex on a real factor."""
    fact = request.getfixturevalue(which)
    boxes = sum(1 for rec in fact.records if rec.redundant.size)
    rng = np.random.default_rng(6)
    b = rng.standard_normal((fact.n, 8))
    for rhs in (b[:, 0], b, b[:, 1] + 1j * b[:, 2]):
        trtrs_calls.clear()
        fact.solve(rhs)
        assert trtrs_calls == ["L"] * boxes + ["U"] * boxes


def test_the_factor_makes_two_triangular_solves_per_box(gaussian16, trtrs_calls):
    """Forming ``E`` and ``G`` costs what the Schur update's ``X_RR^{-1}``
    cost: two triangular solves per eliminated box."""
    fact = srs_factor(gaussian16, opts=SRSOptions(tol=1e-8, leaf_size=16))
    boxes = sum(1 for rec in fact.records if rec.redundant.size)
    assert trtrs_calls == ["U", "L"] * boxes


def test_solve_leaves_the_factorization_untouched(laplace32_fact):
    """Nothing reachable from a solve writes to the factorization."""

    def snapshot():
        return [
            arr.tobytes("A")
            for rec in laplace32_fact.records
            for arr in (rec.redundant, rec.skeleton, rec.cluster, rec.T,
                        rec.lu._lu, rec.lu._piv, rec.lu._perm, rec.e_cr, rec.g_rc)
        ]

    rng = np.random.default_rng(5)
    before = snapshot()
    laplace32_fact.solve(rng.standard_normal(laplace32_fact.n))
    laplace32_fact.solve(rng.standard_normal((laplace32_fact.n, 4)))
    laplace32_fact.solve(1j * rng.standard_normal(laplace32_fact.n))
    laplace32_fact.matvec(rng.standard_normal(laplace32_fact.n))
    assert snapshot() == before


def test_concurrent_solves_on_one_cached_factorization():
    """Two threads, 200 facade solves each, one cached factorization:
    every result is bitwise the single-threaded one."""
    prob = LaplaceVolumeProblem(m=16)
    solver = repro.Solver(prob, method="direct", execution="sequential")
    fact = solver.factorization
    rhs = [prob.random_rhs(1), prob.random_rhs(2, 3)]
    want = [solver.solve(b).x for b in rhs]
    mem = fact.memory_bytes()

    wrong = []
    start = threading.Barrier(2)

    def hammer():
        start.wait()
        bad = 0
        for i in range(200):
            report = repro.solve(prob, rhs[i % 2], solver.config, factorization=fact)
            bad += not np.array_equal(report.x, want[i % 2])
            bad += report.memory_bytes != mem
        wrong.append(bad)

    threads = [threading.Thread(target=hammer) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0, 0]


@pytest.mark.parametrize("execution", ["sequential", "thread"])
def test_memory_bytes_is_walked_once(execution, monkeypatch):
    """The facade asks on every warm request; the records are immutable
    after the build, so the walk happens once and keeps its answer."""
    prob = LaplaceVolumeProblem(m=16)
    ranks = {} if execution == "sequential" else {"ranks": 4}
    report = repro.solve(prob, prob.random_rhs(0), method="direct", execution=execution, **ranks)
    fact = report.factorization
    records = (
        fact.records if execution == "sequential"
        else [rec for w in fact.workers for rec in w.records]
    )
    fresh = sum(rec.memory_bytes() for rec in records)
    assert report.memory_bytes == fact.memory_bytes() == fresh

    def no_second_walk(self):
        raise AssertionError("a warm solve walked the records again")

    monkeypatch.setattr(BoxRecord, "memory_bytes", no_second_walk)
    warm = repro.solve(prob, prob.random_rhs(1), report.config, factorization=fact)
    assert warm.memory_bytes == fresh
    assert warm.health.levels == report.health.levels
