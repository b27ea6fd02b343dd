"""Tests for the distributed solve phase."""

import pickle

import numpy as np
import pytest

from repro.core import SRSOptions
from repro.geometry import uniform_grid
from repro.kernels import GaussianKernelMatrix, LaplaceKernelMatrix, dense_matrix
from repro.parallel import parallel_srs_factor
from repro.parallel.ownership import LevelLayout
from repro.vmpi import INTER_NODE, process_backend_available


def _pfact(factor_mode):
    m = 32
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.05, shift=1.0)
    opts = SRSOptions(tol=1e-10, leaf_size=32, factor_mode=factor_mode)
    return k, dense_matrix(k), parallel_srs_factor(k, 4, opts=opts)


@pytest.fixture(scope="module")
def pfact():
    return _pfact("strict")


def test_multiple_rhs(pfact, rng):
    k, a, fact = pfact
    bs = rng.standard_normal((k.n, 3))
    xs = fact.solve(bs)
    assert xs.shape == bs.shape
    for j in range(3):
        assert np.linalg.norm(a @ xs[:, j] - bs[:, j]) / np.linalg.norm(bs[:, j]) < 1e-10


def test_multi_rhs_matches_single(pfact, rng):
    k, a, fact = pfact
    bs = rng.standard_normal((k.n, 2))
    xs = fact.solve(bs)
    for j in range(2):
        assert np.allclose(xs[:, j], fact.solve(bs[:, j]), rtol=1e-12, atol=1e-14)


def test_complex_rhs_on_real_factorization(pfact, rng):
    """The ranks sweep a complex rhs as real columns and exchange it as
    such; rank 0 hands back the complex solution of both halves."""
    k, a, fact = pfact
    b = rng.standard_normal((k.n, 2)) + 1j * rng.standard_normal((k.n, 2))
    for rhs in (b, b[:, 0]):
        x = fact.solve(rhs)
        assert x.dtype == np.complex128 and x.shape == rhs.shape
        assert np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs) < 1e-10
        want = fact.solve(rhs.real) + 1j * fact.solve(rhs.imag)
        assert np.allclose(x, want, rtol=1e-12, atol=1e-14)


def test_solve_records_timing(pfact, rng):
    k, a, fact = pfact
    fact.solve(rng.standard_normal(k.n))
    assert fact.t_solve > 0
    assert fact.last_solve_run is not None


def test_solve_repeatable(pfact, rng):
    k, a, fact = pfact
    b = rng.standard_normal(k.n)
    assert np.array_equal(fact.solve(b), fact.solve(b))


def test_solve_wrong_size(pfact):
    _, _, fact = pfact
    with pytest.raises(ValueError):
        fact.solve(np.zeros(5))


def test_solve_cheaper_than_factor(pfact, rng):
    """A solve costs a sliver of the factor — the direct-solver selling
    point (Sec. I-A) — read off the byte counters, which no machine's
    speed moves (the simulated times are measured compute)."""
    k, _, fact = pfact
    fact.solve(rng.standard_normal(k.n))
    assert 10 * fact.last_solve_run.total_bytes < fact.factor_run.total_bytes


def test_inter_node_cost_model_slower(rng, srs_opts):
    """Same run under the 1-process-per-node cost model has larger
    t_other (Table VII's contrast)."""
    m = 32
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    opts = srs_opts(tol=1e-6, leaf_size=32)
    fast = parallel_srs_factor(k, 4, opts=opts)
    slow = parallel_srs_factor(k, 4, opts=opts, cost_model=INTER_NODE)
    b = rng.standard_normal(k.n)
    x1, x2 = fast.solve(b), slow.solve(b)
    assert np.allclose(x1, x2)  # identical numerics
    # comm bytes identical, simulated comm cost higher or equal
    assert slow.factor_run.total_bytes == fast.factor_run.total_bytes


class TestBatched:
    """Every check of this module again, with each factorization built
    by the level-batched sweep instead of the strict one."""

    @pytest.fixture(scope="class")
    def factor_mode(self):
        return "batched"

    @pytest.fixture(scope="class")
    def pfact(self):
        return _pfact("batched")


for _name, _check in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestBatched, _name, staticmethod(_check))


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_pickled_factorization_keeps_only_the_factor(backend, rng):
    """Pickling (the store's shared and disk tiers) drops the resident
    handle, the last solve's run and the factor run's results (they are
    ``workers`` again); the factor's counters stay and the copy solves
    bitwise like the original."""
    if backend == "process" and not process_backend_available():
        pytest.skip("process backend unavailable")
    k = LaplaceKernelMatrix(uniform_grid(32), 1.0 / 32)
    fact = parallel_srs_factor(k, 4, opts=SRSOptions(tol=1e-6, leaf_size=32), backend=backend)
    b = rng.standard_normal(k.n)
    x = fact.solve(b)
    assert fact.last_solve_run is not None
    copy = pickle.loads(pickle.dumps(fact))
    assert copy.resident is None and copy.last_solve_run is None
    assert copy.factor_run.results == []
    assert copy.factor_run.total_messages == fact.factor_run.total_messages
    assert copy.factor_run.total_bytes == fact.factor_run.total_bytes
    try:
        assert copy.solve(b).tobytes() == x.tobytes()
    finally:
        if copy.resident is not None:
            copy.resident.drop()


@pytest.mark.parametrize(("m", "leaf", "p", "messages"), [(32, 64, 4, 36), (32, 4, 16, 420)])
def test_solve_message_count_is_pinned_on_both_backends(m, leaf, p, messages, rng):
    """A solve sends the scatter, the colour rounds, the reductions and
    the gather, and nothing else (no barrier before the sweeps): the
    same count on both backends, with the same solution bits. At p = 16
    the leaf level is 16 x 16 boxes, so every rank holds interior and
    boundary records there and runs both halves of each colour round."""
    if not process_backend_available():
        pytest.skip("process backend unavailable")
    k = GaussianKernelMatrix(uniform_grid(m), 1.0 / m, sigma=0.05, shift=1.0)
    b = rng.standard_normal((k.n, 3))
    runs = {}
    for backend in ("thread", "process"):
        fact = parallel_srs_factor(
            k, p, opts=SRSOptions(tol=1e-10, leaf_size=leaf), backend=backend
        )
        try:
            x = fact.solve(b)
        finally:
            if backend == "process" and p != 4:  # an odd pool shape
                fact.backend._pool.shutdown()
        runs[backend] = (fact.last_solve_run.total_messages, x.tobytes())
        if backend == "thread" and p == 16:
            leaves = LevelLayout(fact.nlevels, p)
            assert fact.nlevels == 4 and len(fact.workers) == p
            for worker in fact.workers:
                assert {
                    leaves.is_boundary(rec.box, worker.rank)
                    for rec in worker.records if rec.level == fact.nlevels
                } == {False, True}
    assert runs["thread"] == runs["process"]
    assert runs["thread"][0] == messages
