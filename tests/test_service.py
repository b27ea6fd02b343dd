"""Serving-subsystem tests: single-flight, batching, eviction, fronts.

The contracts under test:

* **thundering herd** — N concurrent requests for one unfactored
  operator run exactly one builder; everyone shares its product.
* **batcher parity** — coalesced solves are rounding-level close to
  sequential ``repro.solve`` calls; a lone request, or a zero window,
  gives their bits.
* **batch policy** — a request waits for joiners only while its
  factorization is contended, and idle keys keep no state.
* **eviction hygiene** — dropping a cache entry releases the
  factorization (weakref dies), unpins its rank pool, and leaves
  ``/dev/shm`` exactly as found.
* **fronts** — futures, blocking, and asyncio entry points agree.
"""

import gc
import sys
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro.api import SolveConfig
from repro.apps import LaplaceVolumeProblem
from repro.service import FactorizationCache, RhsBatcher, ServiceConfig, SolveService
from repro.tree import QuadTree
from repro.vmpi import process_backend_available
from repro.vmpi.pool import active_pools

from conftest import shm_blocks

needs_process = pytest.mark.skipif(
    not process_backend_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


@pytest.fixture(scope="module")
def prob():
    return LaplaceVolumeProblem(24)


@pytest.fixture(scope="module")
def reference_xs(prob):
    """Facade solutions for seeds 0..15 (the bitwise baseline)."""
    return {i: repro.solve(prob, prob.random_rhs(i)).x for i in range(16)}


# ----------------------------------------------------------------------
# thundering herd / single flight
# ----------------------------------------------------------------------
def test_thundering_herd_single_factorization(prob, reference_xs):
    """32 concurrent requests for one unfactored operator: one build."""
    with SolveService(workers=32, batch_window=0.0) as svc:
        futures = [svc.submit(prob, prob.random_rhs(i % 16)) for i in range(32)]
        reports = [f.result(timeout=120) for f in futures]
        st = svc.stats()
    assert st.factorizations == 1
    assert st.cache_misses == 1
    assert st.cache_hits == 31
    assert st.single_flight_waits >= 1  # some arrived while the factor ran
    assert st.completed == 32 and st.failed == 0
    for i, r in enumerate(reports):
        assert np.array_equal(r.x, reference_xs[i % 16])


def test_single_flight_failure_propagates_and_caches_nothing():
    bad = LaplaceVolumeProblem(16)
    # a tree over the wrong point set makes srs_factor raise
    bad.tree = QuadTree(np.array([[0.5, 0.5]]), 3)
    with SolveService(workers=8, batch_window=0.0) as svc:
        futures = [svc.submit(bad, bad.random_rhs(i)) for i in range(4)]
        for f in futures:
            with pytest.raises(ValueError, match="same point set"):
                f.result(timeout=60)
        assert svc.stats().failed == 4
        assert len(svc.cache) == 0  # failed builds are never cached


def test_cross_method_factorization_sharing(prob):
    """direct and pcg share the srs setup family: one factorization."""
    with SolveService(workers=4, batch_window=0.0) as svc:
        r_direct = svc.solve(prob, prob.random_rhs(0))
        r_pcg = svc.solve(prob, prob.random_rhs(1), method="pcg", tol=1e-10)
        st = svc.stats()
    assert st.factorizations == 1
    assert r_direct.cache_hit is False
    assert r_pcg.cache_hit is True
    assert r_pcg.iterations > 0 and r_pcg.converged


# ----------------------------------------------------------------------
# batching
# ----------------------------------------------------------------------
@contextmanager
def _held_first_solve(fact):
    """Hold ``fact``'s next solve until the block exits.

    Yields an event set once that solve executes. Requests for the same
    factorization submitted while it is held see a contended key, so
    they coalesce by construction, not by window timing.
    """
    entered, gate = threading.Event(), threading.Event()
    solve = fact.solve

    def held(b):
        if not entered.is_set():
            entered.set()
            assert gate.wait(60)
        return solve(b)

    fact.solve = held
    try:
        yield entered
    finally:
        gate.set()
        del fact.solve


def test_block_batching_close_and_faster_shape(prob, reference_xs):
    """Twelve requests queued behind a held solve: one block apply,
    rounding-close to the facade's one-by-one solves."""
    with SolveService(workers=16, batch_window=3600.0, batch_max=12) as svc:
        fact = svc.solve(prob, prob.random_rhs(0)).factorization
        with _held_first_solve(fact) as entered:
            first = svc.submit(prob, prob.random_rhs(0))
            assert entered.wait(60)
            futures = [svc.submit(prob, prob.random_rhs(i)) for i in range(12)]
            reports = [f.result(timeout=120) for f in futures]
        lone = first.result(timeout=120)
        st = svc.stats()
    # nothing was executing when it arrived: solo bits at any window
    assert lone.batch_size == 1 and np.array_equal(lone.x, reference_xs[0])
    assert [r.batch_size for r in reports] == [12] * 12
    assert st.max_batch_occupancy == 12
    for i, r in enumerate(reports):
        ref = reference_xs[i]
        rel = np.linalg.norm(r.x - ref) / np.linalg.norm(ref)
        assert rel < 1e-12  # GEMM-vs-GEMV rounding only


def test_block_batch_preserves_shapes_and_matrix_rhs(prob):
    """(N,) and (N, k) requests coalesce and come back at their shapes."""
    b1 = prob.random_rhs(1)
    b2 = prob.random_rhs(2, nrhs=3)
    with SolveService(workers=8, batch_window=3600.0, batch_max=2) as svc:
        fact = svc.solve(prob, prob.random_rhs(0)).factorization
        with _held_first_solve(fact) as entered:
            svc.submit(prob, prob.random_rhs(0))
            assert entered.wait(60)
            f1 = svc.submit(prob, b1)
            f2 = svc.submit(prob, b2)
            r1, r2 = f1.result(timeout=120), f2.result(timeout=120)
    assert r1.batch_size == r2.batch_size == 2
    assert r1.x.shape == (prob.n,)
    assert r2.x.shape == (prob.n, 3)
    ref2 = repro.solve(prob, b2).x
    assert np.linalg.norm(r2.x - ref2) / np.linalg.norm(ref2) < 1e-12


def test_batch_max_dispatches_early(prob):
    """A full batch dispatches at once, not after the hour-long window."""
    with SolveService(workers=8, batch_window=3600.0, batch_max=4) as svc:
        fact = svc.solve(prob, prob.random_rhs(0)).factorization
        with _held_first_solve(fact) as entered:
            svc.submit(prob, prob.random_rhs(0))
            assert entered.wait(60)
            futures = [svc.submit(prob, prob.random_rhs(i)) for i in range(4)]
            # the timeout only guards against a hang
            reports = [f.result(timeout=60) for f in futures]
        st = svc.stats()
    assert [r.batch_size for r in reports] == [4] * 4
    assert st.factorizations == 1


def test_zero_window_disables_coalescing(prob):
    with SolveService(workers=4, batch_window=0.0) as svc:
        svc.solve(prob, prob.random_rhs(0))
        futures = [svc.submit(prob, prob.random_rhs(i)) for i in range(4)]
        for f in futures:
            f.result(timeout=60)
        st = svc.stats()
    assert st.max_batch_occupancy == 1


# ----------------------------------------------------------------------
# batch policy: a stub factorization whose solve blocks on an Event, so
# no test sleeps or reads a clock; every timeout only guards a hang
# ----------------------------------------------------------------------
class _GatedFact:
    """Solves ``2 b``; each solve waits for ``gate`` and logs its shape."""

    def __init__(self, *, raise_on_block=False):
        self.gate = threading.Event()
        self.started = threading.Semaphore(0)
        self.shapes = []
        self.raise_on_block = raise_on_block

    def solve(self, b):
        self.shapes.append(b.shape)
        self.started.release()
        assert self.gate.wait(60)
        if self.raise_on_block and b.ndim == 2:
            raise FloatingPointError("block apply failed")
        return 2.0 * b


def _submit(batcher, key, fact, b):
    """Submit from a daemon thread (an opener may block); the future
    resolves to ``(x, batch_size)`` or the request's error."""
    fut = Future()
    threading.Thread(
        target=batcher.submit,
        args=(key, fact, b, lambda x, size, _t: fut.set_result((x, size)), fut.set_exception),
        daemon=True,
    ).start()
    return fut


def _executing(fact):
    assert fact.started.acquire(timeout=60)


def test_lone_request_solves_at_once():
    """No company, no wait: an hour-long window is never waited out."""
    fact = _GatedFact()
    fact.gate.set()
    batcher = RhsBatcher(3600.0, 32)
    b = np.arange(4.0)
    x, size = _submit(batcher, "k", fact, b).result(timeout=60)
    assert size == 1 and np.array_equal(x, 2 * b)
    assert fact.shapes == [(4,)]  # solo, at the submitted shape
    assert batcher._keys == {}


def test_arrivals_during_a_solve_form_the_next_batch():
    fact = _GatedFact()
    batcher = RhsBatcher(3600.0, 3)
    lone = _submit(batcher, "k", fact, np.zeros(4))
    _executing(fact)
    bs = [np.full(4, float(i)) for i in range(3)]
    futures = [_submit(batcher, "k", fact, b) for b in bs]
    _executing(fact)  # batch_max filled: dispatched without the window
    fact.gate.set()
    assert lone.result(timeout=60)[1] == 1
    results = [f.result(timeout=60) for f in futures]
    assert [size for _x, size in results] == [3, 3, 3]
    for b, (x, _size) in zip(bs, results):
        assert np.array_equal(x, 2 * b)
    assert fact.shapes == [(4,), (4, 3)]


def test_failed_apply_fails_exactly_its_batch():
    fact = _GatedFact(raise_on_block=True)
    batcher = RhsBatcher(3600.0, 2)
    lone = _submit(batcher, "k", fact, np.ones(4))
    _executing(fact)
    failing = [_submit(batcher, "k", fact, np.ones(4)) for _ in range(2)]
    _executing(fact)
    fact.gate.set()
    assert lone.result(timeout=60)[1] == 1
    for f in failing:
        with pytest.raises(FloatingPointError, match="block apply failed"):
            f.result(timeout=60)
    (state,) = batcher._keys.values()
    assert state.running == 0 and state.open is None  # idle again


def test_contention_ends_after_two_lone_batches():
    fact = _GatedFact()
    # the window outlasts a thread start, so the pair below always meets
    # (a full batch dispatches without waiting it out); after the pair
    # nobody else submits, so each wait closes with one item
    batcher = RhsBatcher(0.1, 2)
    first = _submit(batcher, "k", fact, np.zeros(4))
    _executing(fact)
    pair = [_submit(batcher, "k", fact, np.zeros(4)) for _ in range(2)]
    _executing(fact)
    fact.gate.set()
    assert [f.result(timeout=60)[1] for f in (first, *pair)] == [1, 2, 2]
    for contended_after in (True, False):
        assert _submit(batcher, "k", fact, np.zeros(4)).result(timeout=60)[1] == 1
        assert ("k" in batcher._keys) is contended_after
    assert fact.shapes == [(4,), (4, 2), (4,), (4,)]


def test_request_resubmitted_from_finish_is_not_contended():
    """The executing mark is cleared before delivery: a closed-loop
    caller's next request does not see its own predecessor."""
    fact = _GatedFact()
    fact.gate.set()
    batcher = RhsBatcher(3600.0, 32)
    second = Future()

    def finish(x, size, _t):
        batcher.submit(
            "k", fact, x, lambda x2, size2, _t2: second.set_result((x2, size2)),
            second.set_exception,
        )

    first_failed = Future()
    threading.Thread(
        target=batcher.submit,
        args=("k", fact, np.ones(4), finish, first_failed.set_result),
        daemon=True,
    ).start()
    x, size = second.result(timeout=60)
    assert size == 1 and np.array_equal(x, 4 * np.ones(4))
    assert not first_failed.done()
    assert fact.shapes == [(4,), (4,)]
    assert batcher._keys == {}


def test_idle_keys_leave_no_state():
    """A lone key keeps no record once done, and a lone request drops
    the record of a key that went idle while contended."""
    fact = _GatedFact()
    batcher = RhsBatcher(3600.0, 2)
    first = _submit(batcher, "hot", fact, np.zeros(4))
    _executing(fact)
    pair = [_submit(batcher, "hot", fact, np.zeros(4)) for _ in range(2)]
    _executing(fact)
    fact.gate.set()
    assert [f.result(timeout=60)[1] for f in (first, *pair)] == [1, 2, 2]
    assert batcher._keys["hot"].contended
    futures = [_submit(batcher, ("k", i), fact, np.full(4, i)) for i in range(100)]
    assert [f.result(timeout=60)[1] for f in futures] == [1] * 100
    assert batcher._keys == {}


def test_batcher_stress_loses_no_request():
    """More submitters than cores on few keys, a short switch interval:
    every request gets its own answer once, the occupancies add up to
    the requests, and no key is left executing or open."""
    fact = _GatedFact()
    fact.gate.set()
    sizes = []
    batcher = RhsBatcher(1e-4, 4, on_batch=sizes.append)

    def one(i):
        out = Future()
        batcher.submit(
            i % 3, fact, np.full(4, float(i)),
            lambda x, _size, _t: out.set_result(x), out.set_exception,
        )
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(16) as pool:
            outs = list(pool.map(one, range(400)))
    finally:
        sys.setswitchinterval(interval)
    for i, out in enumerate(outs):
        assert np.array_equal(out.result(timeout=60), np.full(4, 2.0 * i))
    assert sum(sizes) == 400
    assert all(s.running == 0 and s.open is None for s in batcher._keys.values())


# ----------------------------------------------------------------------
# cache eviction
# ----------------------------------------------------------------------
def test_eviction_frees_factorization(prob):
    svc = SolveService(workers=2, batch_window=0.0)
    r1 = svc.solve(prob, prob.random_rhs(0))
    ref = weakref.ref(r1.factorization)
    assert svc.stats().entries_resident == 1
    svc.cache.max_bytes = 1  # shrink the budget: next insert evicts
    other = LaplaceVolumeProblem(20)
    svc.solve(other, other.random_rhs(0))
    st = svc.stats()
    assert st.evictions == 1
    assert st.entries_resident == 1  # only the newcomer survives
    svc.close()
    del r1
    gc.collect()
    assert ref() is None  # nothing keeps the evicted factors alive


def test_lru_order_and_byte_budget():
    built = []
    cache = FactorizationCache(max_bytes=250)

    class Fact:
        def __init__(self, tag):
            self.tag = tag

        def memory_bytes(self):
            return 100

    def builder(tag):
        def build():
            built.append(tag)
            return Fact(tag)

        return build

    cache.get_or_build("a", builder("a"))
    cache.get_or_build("b", builder("b"))
    cache.get_or_build("a", builder("a2"))  # refresh a's recency
    cache.get_or_build("c", builder("c"))  # 300 bytes > 250: evict LRU=b
    assert built == ["a", "b", "c"]
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.evictions == 1
    assert cache.bytes_resident == 200


def test_build_finishing_after_close_is_released():
    """A factorization completing post-close never stays resident: its
    worker-side shards are dropped like an evicted entry's."""
    cache = FactorizationCache(max_bytes=1 << 20)
    gate = threading.Event()
    results = []
    dropped = []

    class Handle:
        def drop(self):
            dropped.append(True)

    class Fact:
        resident = Handle()

        def memory_bytes(self):
            return 10

    def slow_build():
        gate.wait(10)
        return Fact()

    t = threading.Thread(
        target=lambda: results.append(cache.get_or_build("k", slow_build))
    )
    t.start()
    time.sleep(0.05)  # let the flight start
    cache.close()
    gate.set()
    t.join(10)
    assert results and results[0].fact is not None  # the caller still gets it
    assert len(cache) == 0  # but nothing stays resident
    assert dropped == [True]  # and the rank workers let go of it


def test_failed_accounting_fails_the_flight_and_caches_nothing():
    """A product whose ``memory_bytes()`` raises fails its build: the
    leader and a waiting follower both see the error at once, and the
    next request builds afresh."""
    cache = FactorizationCache(max_bytes=1 << 20)
    started, gate, following = threading.Event(), threading.Event(), threading.Event()

    class Planted:
        def memory_bytes(self):
            raise RuntimeError("planted accounting fault")

    class Good:
        def memory_bytes(self):
            return 10

    def planted_build():
        started.set()
        gate.wait(10)
        return Planted()

    class Watched(threading.Event):
        def wait(self, timeout=None):
            following.set()
            return super().wait(timeout)

    outcomes = {}

    def call(name, builder):
        try:
            outcomes[name] = cache.get_or_build("k", builder, timeout=10)
        except BaseException as exc:  # noqa: BLE001 - the outcome under test
            outcomes[name] = exc

    leader = threading.Thread(target=call, args=("leader", planted_build))
    leader.start()
    assert started.wait(10)
    cache._entries["k"].event = Watched()  # tells when the follower waits
    follower = threading.Thread(target=call, args=("follower", Good))
    follower.start()
    assert following.wait(10)
    gate.set()
    leader.join(10)
    follower.join(10)
    for name in ("leader", "follower"):
        assert isinstance(outcomes[name], RuntimeError), outcomes[name]
        assert "planted" in str(outcomes[name])
    assert len(cache) == 0
    lookup = cache.get_or_build("k", Good)
    assert not lookup.hit and isinstance(lookup.fact, Good) and lookup.nbytes == 10
    assert "k" in cache


def test_oversized_entry_stays_resident():
    cache = FactorizationCache(max_bytes=10)

    class Big:
        def memory_bytes(self):
            return 1000

    lookup = cache.get_or_build("big", Big)
    assert lookup.fact is not None
    assert "big" in cache  # the newcomer is never evicted for itself


@needs_process
def test_process_eviction_frees_shm(prob):
    before = shm_blocks()
    cfg = SolveConfig(method="direct", execution="process", ranks=4)
    svc = SolveService(workers=4, batch_window=0.0)
    r1 = svc.solve(prob, prob.random_rhs(0), cfg)
    ref = repro.solve(prob, prob.random_rhs(0), cfg)
    assert np.array_equal(r1.x, ref.x)
    pool = r1.factorization.backend.pool
    assert pool in active_pools() and pool.alive
    fact_ref = weakref.ref(r1.factorization)
    # evict by shrinking the budget and inserting another entry
    svc.cache.max_bytes = 1
    other = LaplaceVolumeProblem(16)
    svc.solve(other, other.random_rhs(0), cfg)
    assert svc.stats().evictions >= 1
    svc.close()
    del r1, ref
    gc.collect()
    assert fact_ref() is None
    # the ranks outlive every entry they served: one pool per shape until exit
    assert pool in active_pools() and pool.alive and pool.spawn_count == 4
    assert shm_blocks() == before  # eviction leaves /dev/shm as found


# ----------------------------------------------------------------------
# fronts and lifecycle
# ----------------------------------------------------------------------
def test_asyncio_front(prob, reference_xs):
    import asyncio

    async def main(svc):
        reports = await asyncio.gather(
            *(svc.asolve(prob, prob.random_rhs(i)) for i in range(6))
        )
        return reports

    with SolveService(workers=8, batch_window=0.0) as svc:
        reports = asyncio.run(main(svc))
    for i, r in enumerate(reports):
        assert np.array_equal(r.x, reference_xs[i])


def test_submit_validates_synchronously(prob):
    with SolveService(workers=2) as svc:
        with pytest.raises(ValueError, match="unknown solve method"):
            svc.submit(prob, config=None, method="nope")
        with pytest.raises(TypeError, match="Problem"):
            svc.submit(object())
        with pytest.raises(ValueError, match="symmetric"):
            scat = repro.ScatteringProblem(16, 9.0)
            svc.submit(scat, method="pcg")


def test_closed_service_rejects(prob):
    svc = SolveService(workers=2)
    svc.close()
    with pytest.raises(RuntimeError, match="closed"):
        svc.submit(prob)


def test_default_rhs_and_report_shape(prob):
    with SolveService(workers=2, batch_window=0.0) as svc:
        report = svc.solve(prob)
        d = report.to_dict()
    assert d["cache_hit"] is False
    assert d["batch_size"] == 1
    assert "t_queue" in d
    assert report.relres < 1e-2


def test_direct_report_is_the_facade_report(prob):
    """One report constructor: a direct request through the service
    carries the health rows and bumps ``repro_solve_total`` exactly as
    ``repro.solve`` does (it used to do neither)."""
    from repro.obs import REGISTRY

    solves = REGISTRY.counter("repro_solve_total", labelnames=("method", "execution"))

    def count():
        return solves.value(method="direct", execution="sequential")

    b = prob.random_rhs(0)
    before = count()
    ref = repro.solve(prob, b)
    assert count() == before + 1
    with SolveService(workers=2, batch_window=0.0) as svc:
        report = svc.solve(prob, b)
        assert count() == before + 2
        refined = svc.solve(prob, b, method="pcg")
    assert ref.health is not None and ref.health.levels
    assert report.health == ref.health
    assert report.memory_bytes == ref.memory_bytes
    assert refined.health.levels == ref.health.levels and refined.health.iterations > 0


def test_stats_snapshot_sanity(prob):
    with SolveService(workers=4, batch_window=0.01) as svc:
        for i in range(8):
            svc.solve(prob, prob.random_rhs(i))
        st = svc.stats()
    assert st.requests == 8 and st.completed == 8
    assert 0 < st.hit_rate <= 7 / 8
    assert st.p50_latency_s is not None and st.p95_latency_s >= st.p50_latency_s
    assert st.bytes_resident > 0 and st.entries_resident == 1
    d = st.to_dict()
    assert d["hit_rate"] == st.hit_rate and "mean_batch_occupancy" in d


def test_service_config_env_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_CACHE_BYTES", "12345")
    monkeypatch.setenv("REPRO_SERVICE_BATCH_WINDOW_MS", "7.5")
    cfg = ServiceConfig()
    assert cfg.cache_bytes == 12345
    assert cfg.batch_window == pytest.approx(0.0075)
    assert (cfg.batch_max, cfg.workers, cfg.max_pending) == (32, 8, 1024)


def test_service_config_validation():
    with pytest.raises(ValueError, match="workers"):
        ServiceConfig(workers=0)
    with pytest.raises(ValueError, match="batch_max"):
        ServiceConfig(batch_max=0)
    with pytest.raises(ValueError, match="max_pending"):
        ServiceConfig(max_pending=-1)


def test_concurrent_distinct_problems(prob):
    """Different operators factor independently and never cross-talk."""
    other = LaplaceVolumeProblem(20)
    with SolveService(workers=8, batch_window=0.0) as svc:
        futures = []
        for i in range(4):
            futures.append((prob, i, svc.submit(prob, prob.random_rhs(i))))
            futures.append((other, i, svc.submit(other, other.random_rhs(i))))
        for p, i, f in futures:
            r = f.result(timeout=120)
            assert np.array_equal(r.x, repro.solve(p, p.random_rhs(i)).x)
        st = svc.stats()
    assert st.factorizations == 2
    assert st.entries_resident == 2


def test_latency_reservoir_fixed_memory():
    from repro.service.stats import _Reservoir

    r = _Reservoir(size=8)
    for i in range(1000):
        r.add(float(i))
    assert r.seen == 1000
    assert len(r.values()) == 8
    assert all(0.0 <= v < 1000.0 for v in r.values())


def test_latency_percentiles_exact_under_reservoir_size():
    from repro.service.stats import StatsCollector

    col = StatsCollector()
    for i in range(101):
        col.record_latency(i / 100.0)
    st = col.snapshot(bytes_resident=0, entries_resident=0)
    assert st.p50_latency_s == pytest.approx(0.5)
    assert st.p95_latency_s == pytest.approx(0.95)


def test_recent_request_ring_caps():
    from repro.service.stats import RECENT_REQUESTS, StatsCollector

    col = StatsCollector()
    for i in range(RECENT_REQUESTS + 8):
        col.record_request(request_id=f"r{i}", status="ok")
    recent = col.recent_requests()
    assert len(recent) == RECENT_REQUESTS
    assert recent[0]["request_id"] == "r8"  # oldest evicted
    assert recent[-1]["request_id"] == f"r{RECENT_REQUESTS + 7}"


def test_two_services_each_count_their_own_requests(prob):
    """Service counts live once, in each service's own registry: two
    live services in one process see only their own requests, and what
    ``/metrics`` renders for a service is what its ``/stats`` reports."""
    from repro.obs import parse_prometheus, render_prometheus

    with (
        SolveService(workers=2, store_dir=None) as a,
        SolveService(workers=2, store_dir=None) as b,
    ):
        for seed in range(3):
            a.solve(prob, prob.random_rhs(seed))
        b.solve(prob, prob.random_rhs(0))
        for svc, n in ((a, 3), (b, 1)):
            st = svc.stats()
            assert st.requests == st.completed == n
            assert st.cache_misses == st.factorizations == 1
            assert st.cache_hits == n - 1
            samples = parse_prometheus(render_prometheus(svc.metrics))
            events = {
                labels["kind"]: v for labels, v in samples["repro_service_events_total"]
            }
            assert events["completed"] == st.completed
            assert "batches" not in events and "batched_requests" not in events
            ((_, count),) = samples["repro_service_batch_occupancy_count"]
            ((_, total),) = samples["repro_service_batch_occupancy_sum"]
            assert (count, total) == (st.batches, st.batched_requests)
            assert st.batches >= 1


def test_stats_carry_health_and_recent_requests(prob):
    bad = LaplaceVolumeProblem(16)
    # a tree over the wrong point set makes srs_factor raise
    bad.tree = QuadTree(np.array([[0.5, 0.5]]), 3)
    with SolveService(workers=2) as svc:
        svc.solve(prob, prob.random_rhs(0))
        with pytest.raises(ValueError, match="same point set"):
            svc.solve(bad, bad.random_rhs(0))
        st = svc.stats()
        recent = svc.recent_requests()
    assert st.health is not None and st.health["levels"]
    assert st.to_dict()["health"]["levels"]
    ok = [r for r in recent if r["status"] == "ok"]
    failed = [r for r in recent if r["status"] == "error"]
    assert ok and ok[-1]["duration_s"] >= 0
    assert all(ok[-1][k] >= 0 for k in ("t_queue", "t_setup", "t_solve"))
    assert failed and "error" in failed[-1]
