"""Tests for vmpi collectives against numpy references.

Rank programs are module-level functions and their parameters travel as
``run_spmd`` arguments, so the same cases run on rank processes
(``REPRO_VMPI_BACKEND=process``, any start method) as on rank threads.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vmpi import run_spmd


def _bcast_prog(comm):
    data = {"v": np.arange(10)} if comm.rank == 0 else None
    out = comm.bcast(data, 0)
    return out["v"].sum()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
def test_bcast(p):
    run = run_spmd(p, _bcast_prog)
    assert all(r == 45 for r in run.results)


def _bcast_from_prog(comm, root):
    data = comm.rank if comm.rank == root else None
    return comm.bcast(data, root)


@pytest.mark.parametrize("p", [1, 2, 5, 8])
def test_bcast_nonzero_root(p):
    root = p - 1
    run = run_spmd(p, _bcast_from_prog, root)
    assert all(r == root for r in run.results)


def _reduce_sum_prog(comm):
    return comm.reduce(comm.rank + 1, operator.add, 0)


@pytest.mark.parametrize("p", [1, 2, 4, 7, 16])
def test_reduce_sum(p):
    run = run_spmd(p, _reduce_sum_prog)
    assert run.results[0] == p * (p + 1) // 2
    assert all(r is None for r in run.results[1:])


def _allreduce_array_prog(comm):
    return comm.allreduce(np.full(4, comm.rank), operator.add)


@pytest.mark.parametrize("p", [2, 4, 9])
def test_allreduce_array(p):
    run = run_spmd(p, _allreduce_array_prog)
    expected = sum(range(p))
    for r in run.results:
        assert np.all(r == expected)


def _gather_prog(comm):
    return comm.gather(f"r{comm.rank}", 0)


@pytest.mark.parametrize("p", [1, 3, 4, 8])
def test_gather_order(p):
    run = run_spmd(p, _gather_prog)
    assert run.results[0] == [f"r{i}" for i in range(p)]


def _allgather_prog(comm):
    return comm.allgather(comm.rank * 2)


@pytest.mark.parametrize("p", [1, 4, 6])
def test_allgather(p):
    run = run_spmd(p, _allgather_prog)
    for r in run.results:
        assert r == [2 * i for i in range(p)]


def _scatter_prog(comm):
    payload = [np.full(3, i) for i in range(comm.size)] if comm.rank == 0 else None
    mine = comm.scatter(payload, 0)
    return int(mine[0])


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
def test_scatter(p):
    run = run_spmd(p, _scatter_prog)
    assert run.results == list(range(p))


def _short_scatter_prog(comm):
    # non-root ranks would block on the scatter message that never
    # comes (root raises); fail them fast instead of waiting
    if comm.rank != 0:
        return None
    comm.scatter([1], 0)


def test_scatter_requires_full_list():
    with pytest.raises(RuntimeError, match="exactly one payload"):
        run_spmd(2, _short_scatter_prog)


def _barrier_prog(comm):
    if comm.rank == 0:
        comm.send("hello", 1, tag=4)
    comm.barrier()
    if comm.rank == 1:
        return comm.recv(0, tag=4)
    return None


def test_barrier_orders_phases():
    """After a barrier, all pre-barrier sends are receivable."""
    run = run_spmd(3, _barrier_prog)
    assert run.results[1] == "hello"


def _allreduce_values_prog(comm, vals):
    return comm.allreduce(vals[comm.rank], operator.add)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=-100, max_value=100), min_size=8, max_size=8),
)
def test_allreduce_matches_numpy_property(p, values):
    vals = values[:p]
    run = run_spmd(p, _allreduce_values_prog, vals)
    assert all(r == sum(vals) for r in run.results)


def _repeated_collectives_prog(comm):
    out = []
    for k in range(5):
        out.append(comm.allreduce(comm.rank + k, operator.add))
        comm.barrier()
    return out


def test_collectives_compose_repeatedly():
    """Many collectives in sequence don't cross-talk."""
    p = 4
    run = run_spmd(p, _repeated_collectives_prog)
    for r in run.results:
        assert r == [sum(range(p)) + k * p for k in range(5)]
