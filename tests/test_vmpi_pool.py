"""Persistent rank-pool tests: spawn-once reuse, cleanliness, recovery.

The acceptance contract of the pool: after the first dispatch through a
``Solver``/``ParallelFactorization``, no further process spawns happen
(probed via ``RankPool.spawn_count``), results stay bitwise identical
to the thread backend, and repeated dispatches leave zero orphaned
``/dev/shm`` blocks.
"""

import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro import SolveConfig, Solver
from repro.apps import LaplaceVolumeProblem, ScatteringProblem
from repro.core import SRSOptions
from repro.parallel import parallel_srs_factor
from repro.vmpi import (
    DispatchEncodeError,
    ProcessBackend,
    process_backend,
    process_backend_available,
    run_spmd,
)
from repro.vmpi.pool import RankPool, active_pools, get_pool
from repro.vmpi.process_backend import SEGMENT_MIN_BYTES, release_segment

from conftest import shm_blocks

needs_process = pytest.mark.skipif(
    not process_backend_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)

pytestmark = needs_process

#: float64 count of a message bulk enough for a shared-memory segment
_BULK = SEGMENT_MIN_BYTES // 8 + 1


def _fresh_pool(nranks: int, start_method: str) -> None:
    """Retire the registry's pool of this shape, so the next
    ``get_pool`` starts a first cohort."""
    for pool in active_pools():
        if (pool.nranks, pool.start_method) == (nranks, start_method):
            pool.shutdown()


def _count_swept(monkeypatch) -> list:
    """One set per job: the segment names its post-job sweep saw."""
    import repro.vmpi.pool as pool_mod

    swept: list = []
    plain_unlink = pool_mod._unlink_registered

    def counting_unlink(names):
        swept.append(set(names))
        plain_unlink(names)

    monkeypatch.setattr(pool_mod, "_unlink_registered", counting_unlink)
    return swept


def _echo_prog(comm, scale):
    data = np.arange(3000, dtype=np.float64) * (comm.rank + 1) * scale
    total = comm.allreduce(float(data.sum()), lambda a, b: a + b)
    peer = comm.rank ^ 1
    comm.send(data, peer, tag=5)
    mirror = comm.recv(peer, tag=5)
    return total, float(mirror.sum())


def _pid_prog(comm):
    return os.getpid()


def _fire_and_forget_prog(comm, value):
    """Unbalanced on purpose: rank 0's message (a bulk one, in a
    segment) is never received."""
    if comm.rank == 0:
        comm.send(np.full(_BULK, value), 1, tag=99)
    return comm.rank


def _recv_prog(comm, value):
    if comm.rank == 0:
        comm.send(np.full(_BULK, float(value)), 1, tag=99)
        return None
    return float(comm.recv(0, tag=99)[0])


def _partial_boom_prog(comm):
    if comm.rank == 0:
        raise ValueError("boom")
    return comm.rank


# ----------------------------------------------------------------------
# dispatch reuse
# ----------------------------------------------------------------------
def test_run_spmd_reuses_one_pool():
    before = shm_blocks()
    be = ProcessBackend()
    r1 = run_spmd(2, _echo_prog, 1.0, backend=be)
    pool = be._pool
    assert pool is not None and pool.alive
    spawns = pool.spawn_count
    assert spawns == 2
    pids1 = run_spmd(2, _pid_prog, backend=be).results
    pids2 = run_spmd(2, _pid_prog, backend=be).results
    assert pids1 == pids2  # the same worker processes served both jobs
    assert pool.spawn_count == spawns  # and nothing was respawned
    r2 = run_spmd(2, _echo_prog, 1.0, backend=be)
    assert r1.results == r2.results
    assert shm_blocks() - before == set()


@dataclass
class _ThirtyArrays:
    rank: int
    arrays: list


def _thirty_arrays_prog(comm, table):
    return _ThirtyArrays(
        comm.rank, [table[: 1200 + i] * (comm.rank + 1) for i in range(30)]
    )


def test_job_registers_one_segment_per_dispatch_and_per_result(monkeypatch):
    """A job over 4 ranks whose args hold one bulk array and whose
    results each hold 30 that together are bulk registers 1 + 4 names:
    the dispatch segment, and one per rank result — counted in the
    registry pipe's sweep."""
    swept = _count_swept(monkeypatch)
    before = shm_blocks()
    table = np.arange(_BULK, dtype=np.float64)
    assert 30 * 1200 * 8 >= SEGMENT_MIN_BYTES
    run = run_spmd(4, _thirty_arrays_prog, table, backend=ProcessBackend())
    assert len(swept) == 1 and len(swept[0]) == 1 + 4
    for rank, result in enumerate(run.results):
        assert result.rank == rank and len(result.arrays) == 30
        for i, arr in enumerate(result.arrays):
            np.testing.assert_array_equal(arr, table[: 1200 + i] * (rank + 1))
    assert shm_blocks() == before


def test_only_bulk_messages_take_a_segment(monkeypatch):
    """On a p = 4 factorization of ``LaplaceVolumeProblem(m=32)`` (the
    ledger's ``dist_laplace_1k_p4`` operator), segments are created only
    for messages of SEGMENT_MIN_BYTES or more: the factor job registers
    at most 10, a warm solve and a 16-column block solve none — exact
    counts from the registry sweep, not timings."""
    prob = LaplaceVolumeProblem(m=32)
    before = shm_blocks()
    assert run_spmd(4, _pid_prog, backend="process").results  # pool up first
    swept = _count_swept(monkeypatch)
    fact = parallel_srs_factor(
        prob.kernel, 4, domain=prob.parallel_domain, backend="process"
    )
    x = fact.solve(prob.random_rhs(0))
    block = fact.solve(prob.random_rhs(1, 16))
    assert x.shape == (prob.n,) and block.shape == (prob.n, 16)
    assert len(swept) == 3, swept
    factor_job, warm_solve, block_solve = (len(names) for names in swept)
    assert factor_job <= 10 and warm_solve == 0 and block_solve == 0, swept
    fact.resident.drop()
    assert shm_blocks() == before


def test_string_spec_shares_the_registry_pool():
    """Every ``backend="process"`` resolution lands on the same cached
    pool — reuse does not require holding a backend instance."""
    run_spmd(2, _echo_prog, 1.0, backend="process")
    pools = [p for p in active_pools() if p.nranks == 2]
    assert pools
    spawns = {id(p): p.spawn_count for p in pools}
    run_spmd(2, _echo_prog, 2.0, backend="process")
    for p in pools:
        assert p.spawn_count == spawns[id(p)]


def test_concurrent_dispatches_serialize_safely():
    """run_spmd from several threads at once: jobs must serialize on
    the shared pool without cross-talk."""
    import threading

    be = ProcessBackend()
    results: dict[int, object] = {}

    def dispatch(i: int) -> None:
        results[i] = run_spmd(2, _echo_prog, float(i + 1), backend=be).results

    threads = [threading.Thread(target=dispatch, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert sorted(results) == [0, 1, 2]
    for i, res in results.items():
        expected = run_spmd(2, _echo_prog, float(i + 1), backend="thread").results
        assert res == expected


@pytest.mark.parametrize("start_method", [None, "spawn"])
def test_closure_program_raises_dispatch_encode_error(start_method):
    """Rank processes get their program by pickling on every start
    method: a closure is refused before anything is dispatched — pool
    unharmed, nothing registered — and the message names the remedies."""
    import multiprocessing

    if start_method == "spawn" and "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    spawned = start_method == "spawn"
    before = shm_blocks(machine_wide=spawned)
    be = ProcessBackend(start_method=start_method)
    try:
        assert run_spmd(2, _pid_prog, backend=be).results
        pool = be.pool
        jobs, spawns = pool.jobs_run, pool.spawn_count
        local = np.arange(4000.0)

        def prog(comm):  # closure over `local`: unpicklable by reference
            return float(local.sum()) + comm.rank

        with pytest.raises(DispatchEncodeError, match='module level.*backend="thread"') as err:
            run_spmd(2, prog, backend=be)
        assert "prog" in str(err.value)
        with pytest.raises(DispatchEncodeError, match="argument of rank program '_echo_prog'"):
            run_spmd(2, _echo_prog, lambda: 1.0, backend=be)
        assert be.pool is pool and pool.alive
        assert (pool.jobs_run, pool.spawn_count) == (jobs, spawns)
        assert pool._registered == set() and shm_blocks(machine_wide=spawned) == before
        assert run_spmd(2, _pid_prog, backend=be).results  # still dispatches
        assert (pool.jobs_run, pool.spawn_count) == (jobs + 1, spawns)
    finally:
        if spawned:  # an odd shape: nothing else would retire it
            be.pool.shutdown()


def test_unpicklable_kernel_raises_dispatch_encode_error():
    """The same contract one layer up. A problem built on a lambda is
    fine — its kernel holds the sampled potential, not the function —
    but a kernel of a locally defined class cannot reach rank processes,
    and says so instead of forking."""
    prob = ScatteringProblem(16, 5.0, potential=lambda pts: np.full(len(pts), 0.5))
    fact = parallel_srs_factor(prob.kernel, 4, backend="process")
    assert fact.eliminated_count() == prob.n

    class LocalKernel(type(prob.kernel)):
        pass

    kernel = LocalKernel(prob.points, prob.h, prob.kappa, b=prob.b)
    with pytest.raises(DispatchEncodeError, match="argument of rank program"):
        parallel_srs_factor(kernel, 4, backend="process")
    assert fact.solve(prob.rhs()).shape == (prob.n,)  # the pool is unharmed


# ----------------------------------------------------------------------
# factor + repeated solve through one Solver (the acceptance scenario)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def solver_runs():
    prob = LaplaceVolumeProblem(32)
    rng = np.random.default_rng(11)
    bs = [rng.standard_normal(prob.n) for _ in range(3)]
    before = shm_blocks()
    solver = Solver(
        prob,
        SolveConfig(
            method="direct",
            execution="process",
            ranks=4,
            srs=SRSOptions(tol=1e-9, leaf_size=32),
        ),
    )
    reports = [solver.solve(b) for b in bs]
    fact = solver.factorization
    return dict(
        prob=prob, bs=bs, solver=solver, fact=fact, reports=reports, before=before
    )


def test_solver_pool_spawns_once(solver_runs):
    """Second and subsequent dispatches (factor job 1, solve jobs 2..4)
    perform no process spawns."""
    fact = solver_runs["fact"]
    pool = fact.backend._pool
    assert pool is not None and pool.alive
    assert pool.spawn_count == 4  # exactly one spawn per rank, ever
    assert pool.jobs_run >= 4  # 1 factor + 3 solves through those ranks


def test_solver_pool_no_shm_orphans(solver_runs):
    assert shm_blocks() - solver_runs["before"] == set()


def test_solver_pool_counters_match_thread(solver_runs):
    prob, bs = solver_runs["prob"], solver_runs["bs"]
    fact_th = parallel_srs_factor(
        prob.kernel, 4, opts=SRSOptions(tol=1e-9, leaf_size=32), backend="thread"
    )
    fact = solver_runs["fact"]
    for a, c in zip(fact_th.factor_run.reports, fact.factor_run.reports):
        assert (a.messages_sent, a.bytes_sent) == (c.messages_sent, c.bytes_sent)
    for b, report in zip(bs, solver_runs["reports"]):
        assert np.array_equal(report.x, fact_th.solve(b))  # the pool's bits
    assert fact_th.last_solve_run.total_messages == fact.last_solve_run.total_messages
    assert fact_th.last_solve_run.total_bytes == fact.last_solve_run.total_bytes


# ----------------------------------------------------------------------
# cross-job isolation and failure recovery
# ----------------------------------------------------------------------
def test_stale_messages_cannot_cross_jobs():
    """A message stranded by job k (sent, never received) must not be
    matched by job k+1 reusing the same (source, tag) — the epoch stamp
    discards it and unlinks its block."""
    before = shm_blocks()
    be = ProcessBackend()
    run_spmd(2, _fire_and_forget_prog, -1.0, backend=be)
    got = run_spmd(2, _recv_prog, 42.0, backend=be).results[1]
    assert got == 42.0  # job 2's payload, not job 1's strays
    assert shm_blocks() - before == set()


def test_pool_survives_clean_rank_failure():
    before = shm_blocks()
    be = ProcessBackend()
    with pytest.raises(RuntimeError, match="rank 0 failed"):
        run_spmd(2, _partial_boom_prog, backend=be)
    pool = be._pool
    assert pool.alive  # every rank reported, workers idled: pool kept
    spawns = pool.spawn_count
    assert run_spmd(2, _pid_prog, backend=be).results  # still dispatches
    assert pool.spawn_count == spawns
    assert shm_blocks() - before == set()


def test_pool_restarts_after_worker_death():
    before = shm_blocks()
    pool = RankPool(2, ProcessBackend().start_method)
    try:
        run = pool.run(_pid_prog, ())
        assert len(run.results) == 2 and pool.spawn_count == 2
        pool._procs[0].terminate()
        pool._procs[0].join(timeout=10.0)
        assert not pool.alive
        run = pool.run(_pid_prog, ())  # transparently respawns
        assert len(run.results) == 2 and pool.spawn_count == 4
    finally:
        pool.shutdown()
    assert shm_blocks() - before == set()


# ----------------------------------------------------------------------
# the registry: one pool per shape until exit
# ----------------------------------------------------------------------
def test_get_pool_is_single_flight_per_shape():
    """Two threads asking for one never-seen shape get one pool object
    whose workers were spawned exactly once."""
    import threading

    start = ProcessBackend().start_method
    _fresh_pool(3, start)
    got: list = []
    barrier = threading.Barrier(2)

    def ask() -> None:
        barrier.wait()
        got.append(get_pool(3, start))

    threads = [threading.Thread(target=ask) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    try:
        assert len(got) == 2 and got[0] is got[1]
        assert got[0].alive and got[0].spawn_count == 3
        shape = [p for p in active_pools() if (p.nranks, p.start_method) == (3, start)]
        assert shape == [got[0]]
    finally:
        got[0].shutdown()


def test_dead_pool_is_replaced_and_swept():
    """A pool whose worker was killed is replaced by the next
    ``get_pool``; the names the old cohort registered are unlinked."""
    from repro.vmpi.process_backend import _attach_shm, _create_shm

    before = shm_blocks()
    start = ProcessBackend().start_method
    _fresh_pool(3, start)
    old = get_pool(3, start)
    replacement = None
    try:
        assert old.run(_pid_prog, ()).results
        shm = _create_shm(4096)  # what a killed rank's feeder leaves behind
        name = shm.name
        shm.close()
        old._registry_q.put(name)
        old._procs[0].terminate()
        old._procs[0].join(timeout=10.0)
        assert not old.alive
        replacement = get_pool(3, start)
        assert replacement is not old and replacement.alive
        assert replacement.spawn_count == 3 and old.spawn_count == 3
        assert not old.alive and old._procs is None  # survivors reaped
        with pytest.raises(FileNotFoundError):
            _attach_shm(name)
        shape = [p for p in active_pools() if (p.nranks, p.start_method) == (3, start)]
        assert shape == [replacement]
    finally:
        old.shutdown()
        if replacement is not None:
            replacement.shutdown()
    assert shm_blocks() == before


def test_every_shape_stays_live_until_shutdown_all_pools():
    """Nothing evicts: five shapes acquired in turn are all still up,
    with their first cohort, until the exit hook runs."""
    from repro.vmpi.pool import shutdown_all_pools

    before = shm_blocks()
    start = ProcessBackend().start_method
    shapes = [(n, start) for n in range(1, 6)]
    shutdown_all_pools()  # every shape below starts on its first cohort
    try:
        pools = [get_pool(*shape) for shape in shapes]
        for pool in pools:
            assert pool.run(_pid_prog, ()).results
        assert all(p.alive and p.spawn_count == p.nranks for p in pools)
        assert [get_pool(*shape) for shape in shapes] == pools
        assert set(pools) <= set(active_pools())
    finally:
        shutdown_all_pools()
    assert active_pools() == []
    assert not any(p.alive for p in pools)
    assert shm_blocks() == before


@pytest.mark.parametrize("start_method", [None, "spawn"], ids=["default", "spawn"])
def test_two_shapes_from_two_threads_spawn_once_each(start_method):
    """200 dispatches alternating two shapes from two threads: exactly
    those two pools exist for the shapes afterwards, each on its first
    cohort. Under ``fork`` (the Linux default) a rank forked while
    another thread holds the resource tracker's lock (taken in every
    ``SharedMemory()``) would inherit it locked and hang, were the lock
    not held across the fork; this test makes that window wide on
    purpose."""
    import multiprocessing
    import threading

    if start_method and start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    spawned = start_method == "spawn"
    before = shm_blocks(machine_wide=spawned)
    be = ProcessBackend(start_method=start_method)
    method = be.start_method
    sizes = (2, 4)  # _echo_prog pairs ranks: even counts only
    for n in sizes:
        _fresh_pool(n, method)
    errors: list = []

    def loop(offset: int) -> None:
        try:
            for i in range(100):
                n = sizes[(i + offset) % 2]
                total, _ = run_spmd(n, _echo_prog, 1.0, backend=be).results[0]
                assert total == n * (n + 1) / 2 * np.arange(3000.0).sum()
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # widen every check-then-act window
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads) and not errors, errors
        pools = [
            p for p in active_pools() if p.nranks in sizes and p.start_method == method
        ]
        assert sorted(p.nranks for p in pools) == list(sizes)
        assert all(p.alive and p.spawn_count == p.nranks for p in pools)
        assert sum(p.jobs_run for p in pools) == 200
    finally:
        sys.setswitchinterval(interval)
        for n in sizes:
            _fresh_pool(n, method)
    assert shm_blocks(machine_wide=spawned) == before


def test_pool_shutdown_reclaims_everything():
    before = shm_blocks()
    pool = RankPool(2, ProcessBackend().start_method)
    try:
        pool.run(_echo_prog, (1.0,))
        assert pool.alive
    finally:
        pool.shutdown()
    assert not pool.alive
    assert shm_blocks() - before == set()


# ----------------------------------------------------------------------
# the "/dev/shm as found" listing itself (tests/conftest.py)
# ----------------------------------------------------------------------
needs_fork = pytest.mark.skipif(
    process_backend._pick_start_method() != "fork",
    reason="ranks inherit the recording wrapper only under fork",
)


def _leak_prog(comm):
    """Rank 1 makes a segment and leaves it behind."""
    if comm.rank != 1:
        return None
    shm = process_backend._create_shm(4096)
    shm.close()
    return shm.name


@needs_fork
def test_shm_blocks_sees_leaks_of_this_process_and_its_ranks():
    before = shm_blocks()
    mine = process_backend._create_shm(4096)
    mine.close()
    leaked = {mine.name}
    try:
        leaked.add(run_spmd(2, _leak_prog, backend="process").results[1])
        assert shm_blocks() - before == leaked
    finally:
        for name in leaked:
            release_segment(name)
    assert shm_blocks() == before


_STRANGER = """
from repro.vmpi.process_backend import _create_shm, untrack

shm = _create_shm(4096)
untrack(shm.name)  # outlive this process
print(shm.name)
"""


@needs_fork
def test_shm_blocks_ignores_a_segment_of_an_unrelated_process():
    before = shm_blocks()
    cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _STRANGER],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(cwd, "src")},
        cwd=cwd,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    name = out.stdout.strip()
    try:
        assert name in shm_blocks(machine_wide=True)
        assert shm_blocks() == before
    finally:
        release_segment(name)


# ----------------------------------------------------------------------
# interpreter exit
# ----------------------------------------------------------------------
_EXIT_SCRIPT = """
import numpy as np
from repro.apps import LaplaceVolumeProblem, ScatteringProblem
from repro.core import SRSOptions
from repro import SolveConfig, Solver

def main():
    prob = LaplaceVolumeProblem(32)
    solver = Solver(prob, SolveConfig(
        method="direct", execution="process", ranks=4,
        srs=SRSOptions(tol=1e-6, leaf_size=32)))
    r1 = solver.solve(prob.random_rhs(seed=1))
    r2 = solver.solve(prob.random_rhs(seed=2))
    pool = solver.factorization.backend._pool
    assert pool.spawn_count == 4, pool.spawn_count
    print("OK", r1.x.shape[0], r2.x.shape[0])

if __name__ == "__main__":
    main()
"""


def test_pool_interpreter_exit_is_clean(tmp_path):
    """Exiting with a live pool must terminate the workers and leave no
    shm blocks and no resource-tracker complaints."""
    script = tmp_path / "pool_exit.py"
    script.write_text(_EXIT_SCRIPT)
    before = shm_blocks(machine_wide=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(repro.__file__), os.pardir)
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    out = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("OK")
    assert "leaked" not in out.stderr, out.stderr  # resource_tracker noise
    assert shm_blocks(machine_wide=True) - before == set()


# ----------------------------------------------------------------------
# spawn start method through the pool
# ----------------------------------------------------------------------
def test_pool_amortizes_spawn_start_method():
    import multiprocessing

    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    before = shm_blocks(machine_wide=True)
    pool = RankPool(2, "spawn")
    try:
        r1 = pool.run(_echo_prog, (1.0,))
        r2 = pool.run(_echo_prog, (1.0,))
        assert r1.results == r2.results
        assert pool.spawn_count == 2  # one interpreter boot per rank, total
        assert pool.jobs_run == 2
    finally:
        pool.shutdown()
    assert shm_blocks(machine_wide=True) - before == set()
