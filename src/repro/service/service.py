"""The serving front door: concurrent solves over the facade.

A :class:`SolveService` turns ``repro.solve`` into a long-lived,
thread-safe server: requests enter through :meth:`SolveService.submit`
(futures), :meth:`SolveService.solve` (blocking), or
:meth:`SolveService.asolve` (asyncio); factorizations are amortized
across *all* callers through a fingerprint-keyed
:class:`~repro.service.cache.FactorizationCache` (single-flight, LRU
byte budget), and concurrent direct solves against the same
factorization coalesce into block applies through the
:class:`~repro.service.batcher.RhsBatcher`. Every response is the same
:class:`~repro.api.report.SolveReport` the facade returns, annotated
with serving metadata (``cache_hit``, ``batch_size``, ``t_queue``).

    service = repro.service.SolveService()
    futures = [service.submit(prob, prob.random_rhs(i)) for i in range(64)]
    reports = [f.result() for f in futures]     # one factorization total
    print(service.stats().hit_rate)
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.api import strategies
from repro.api.config import SolveConfig
from repro.api.facade import _make_config, make_report
from repro.api.facade import solve as facade_solve
from repro.api.fingerprint import problem_fingerprint
from repro.api.problem import check_problem
from repro.api.report import SolveReport
from repro.api.strategies import StrategyResult, resolve_execution
from repro.obs import MetricsRegistry, health, log_event, trace
from repro.service.batcher import RhsBatcher
from repro.service.cache import FactorizationCache
from repro.service.stats import ServiceStats, StatsCollector
from repro.store import FactorizationStore
from repro.util.config import (
    service_batch_window_s,
    service_cache_bytes,
    store_dir,
)


class ServiceOverloadedError(RuntimeError):
    """The pending-request queue is full; retry later (HTTP 429)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs; ``cache_bytes`` and ``batch_window`` default from
    the ``REPRO_SERVICE_*`` env and ``store_dir`` from ``REPRO_STORE_DIR``.

    Attributes
    ----------
    cache_bytes:
        Factorization-cache byte budget (``REPRO_SERVICE_CACHE_BYTES``).
    batch_window:
        Longest a contended batch waits for joiners, in seconds
        (``REPRO_SERVICE_BATCH_WINDOW_MS``). A request on a
        factorization no other request is using solves at once, with a
        solo solve's bits; 0 disables coalescing, and every solve then
        has a solo solve's bits.
    batch_max:
        Occupancy at which a batch dispatches early (default 32).
    workers:
        Solver threads (default 8).
    max_pending:
        Admission-control bound on requests in flight (default 1024;
        0 disables). Submissions past the bound raise
        :class:`ServiceOverloadedError` (HTTP 429).
    store_dir:
        Root of the resident store's shared/disk tiers
        (``REPRO_STORE_DIR``; ``None`` leaves them off).
    """

    cache_bytes: int = field(default_factory=service_cache_bytes)
    batch_window: float = field(default_factory=service_batch_window_s)
    batch_max: int = 32
    workers: int = 8
    max_pending: int = 1024
    store_dir: str | None = field(default_factory=store_dir)

    def __post_init__(self) -> None:
        if self.cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {self.cache_bytes}")
        if self.batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {self.batch_window}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {self.max_pending}")


class _Request:
    __slots__ = (
        "problem", "b", "config", "future", "t_submit", "request_id", "admitted",
    )

    def __init__(self, problem, b, config: SolveConfig, request_id: str | None = None):
        self.problem = problem
        self.b = b
        self.config = config
        self.future: Future = Future()
        self.t_submit = time.perf_counter()
        self.request_id = request_id or uuid.uuid4().hex[:12]
        #: holds an admission slot until completion/failure/cancellation
        self.admitted = True


class SolveService:
    """Concurrent solve server over the unified facade.

    Thread-safe; one instance is meant to outlive many requests (the
    whole point is amortizing factorizations across them). Use as a
    context manager or call :meth:`close` to release the worker threads
    and the cached factorizations.
    """

    def __init__(self, config: ServiceConfig | None = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            from dataclasses import replace

            config = replace(config, **overrides)
        self.config = config
        self._stats = StatsCollector()
        self._store = (
            FactorizationStore(config.store_dir) if config.store_dir else None
        )
        self._cache = FactorizationCache(config.cache_bytes, store=self._store)
        self._batcher = RhsBatcher(
            config.batch_window,
            config.batch_max,
            on_batch=self._stats.record_batch,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-service"
        )
        self._closed = threading.Event()

    # ------------------------------------------------------------------
    # request entry points
    # ------------------------------------------------------------------
    def submit(
        self,
        problem,
        b: np.ndarray | None = None,
        config: SolveConfig | None = None,
        request_id: str | None = None,
        **overrides,
    ) -> "Future[SolveReport]":
        """Enqueue one solve; returns a future resolving to its report.

        Validation (unknown problem/method/execution, incompatible
        problem) raises here, synchronously; numerical failures surface
        through the future. ``request_id`` (defaulting to a fresh hex
        id) is stamped on the report and every log line of this request.
        """
        if self._closed.is_set():
            raise RuntimeError("SolveService is closed")
        cfg = _make_config(config, overrides)
        check_problem(problem)
        strategies.check_method(problem, cfg)
        if not self._stats.admit(self.config.max_pending):
            self._stats.incr("rejected")
            raise ServiceOverloadedError(
                f"pending queue full ({self.config.max_pending} requests in flight)"
            )
        req = _Request(problem, b, cfg, request_id)
        self._stats.incr("requests")
        self._executor.submit(self._process, req)
        return req.future

    def solve(
        self,
        problem,
        b: np.ndarray | None = None,
        config: SolveConfig | None = None,
        **overrides,
    ) -> SolveReport:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(problem, b, config, **overrides).result()

    async def asolve(
        self,
        problem,
        b: np.ndarray | None = None,
        config: SolveConfig | None = None,
        **overrides,
    ) -> SolveReport:
        """Asyncio front: awaitable form of :meth:`submit`.

        The solve still runs on the service's worker threads; the event
        loop is never blocked (submission itself is cheap validation).
        """
        import asyncio

        return await asyncio.wrap_future(self.submit(problem, b, config, **overrides))

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Snapshot of the serving metrics."""
        return self._stats.snapshot(
            bytes_resident=self._cache.bytes_resident,
            entries_resident=len(self._cache),
            evictions=self._cache.evictions,
            bytes_shared=self._store.shared_bytes() if self._store else 0,
            health=health.snapshot(),
        )

    @property
    def metrics(self) -> MetricsRegistry:
        """This service's own metric families (``GET /metrics`` serves
        them after the process-wide :data:`~repro.obs.REGISTRY`)."""
        return self._stats.registry

    def recent_requests(self) -> list[dict]:
        """The last few completed/failed requests (dashboard feed)."""
        return self._stats.recent_requests()

    @property
    def cache(self) -> FactorizationCache:
        """The factorization cache (introspection/tests)."""
        return self._cache

    @property
    def store(self) -> FactorizationStore | None:
        """The resident store behind the cache, if tiers 2/3 are on."""
        return self._store

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting requests, drain workers, drop the cache."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._executor.shutdown(wait=wait)
        self._cache.close()
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the worker path
    # ------------------------------------------------------------------
    def _release_slot(self, req: _Request) -> None:
        """Return the request's admission slot (idempotent)."""
        if req.admitted:
            req.admitted = False
            self._stats.release()

    def _process(self, req: _Request) -> None:
        if not req.future.set_running_or_notify_cancel():
            self._release_slot(req)
            return
        try:
            self._process_inner(req)
        except BaseException as exc:
            self._fail(req, exc)

    def _process_inner(self, req: _Request) -> None:
        problem, cfg = req.problem, req.config
        b = problem.default_rhs() if req.b is None else np.asarray(req.b)
        if b.shape[0] != problem.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {problem.n}")

        # note on span scope: for a batched direct solve this request's
        # span covers its worker-thread occupancy (submit -> joined or
        # dispatched); the solve itself runs on the batch opener's
        # thread, and its timing is stamped into report.t_solve instead
        with trace.span(
            "service.request", request_id=req.request_id, method=cfg.method
        ):
            key = (problem_fingerprint(problem), strategies.setup_key(cfg))
            with trace.span("service.factor", cached="?") as fspan:
                lookup = self._cache.get_or_build(
                    key, lambda: strategies.setup(problem, cfg)
                )
                fspan.set(cached=lookup.hit, waited=lookup.waited)
            if lookup.hit:
                self._stats.incr("cache_hits")
                if lookup.waited:
                    self._stats.incr("single_flight_waits")
            else:
                self._stats.incr("cache_misses")
                if lookup.store_tier == "shared":
                    self._stats.incr("store_hits_shared")
                elif lookup.store_tier == "disk":
                    self._stats.incr("store_hits_disk")
                else:
                    self._stats.incr("factorizations")
            fact = lookup.fact
            t_queue = time.perf_counter() - req.t_submit

            if cfg.method == "direct":
                execution = resolve_execution(cfg.execution)

                def finish(x: np.ndarray, size: int, t_solve: float) -> None:
                    # the solve started t_solve ago: queue time spans
                    # submission -> solve start, so it includes the batch
                    # window this request waited out (and, for a cache-miss
                    # leader, the factorization build — reported separately
                    # as t_setup)
                    t_queue = time.perf_counter() - t_solve - req.t_submit
                    report = make_report(
                        problem, b, cfg, execution, fact,
                        StrategyResult(x, 0, True, None),
                        t_setup=lookup.build_seconds,
                        t_solve=t_solve,
                        # computed once at cache insert, not per request
                        memory_bytes=lookup.nbytes or None,
                        cache_hit=lookup.hit,
                        batch_size=size,
                        t_queue=t_queue,
                    )
                    self._finish(req, report)

                # id(fact) keys the batch to this factorization *instance*:
                # an evicted-and-rebuilt entry never joins a stale batch,
                # and grouping by rhs dtype keeps block stacking exact
                with trace.span("service.solve", batched=True):
                    self._batcher.submit(
                        (key, id(fact), str(b.dtype), b.shape[0]),
                        fact,
                        b,
                        finish,
                        lambda exc: self._fail(req, exc),
                    )
                return

            with trace.span("service.solve", batched=False):
                report = facade_solve(problem, b, cfg, factorization=fact)
            report.t_setup = lookup.build_seconds
            report.cache_hit = lookup.hit
            report.t_queue = t_queue
            self._finish(req, report)

    def _finish(self, req: _Request, report: SolveReport) -> None:
        self._release_slot(req)
        report.request_id = req.request_id
        self._stats.incr("completed")
        duration = time.perf_counter() - req.t_submit
        self._stats.record_latency(duration)
        self._stats.record_request(
            request_id=req.request_id,
            status="ok",
            method=report.method,
            cache_hit=bool(report.cache_hit),
            batch_size=report.batch_size,
            duration_s=duration,
            t_queue=report.t_queue,
            t_setup=report.t_setup,
            t_solve=report.t_solve,
        )
        req.future.set_result(report)
        log_event(
            "solve",
            request_id=req.request_id,
            status="ok",
            method=report.method,
            execution=report.execution,
            fingerprint=problem_fingerprint(req.problem),
            cache_hit=report.cache_hit,
            batch_size=report.batch_size,
            t_queue=report.t_queue,
            t_setup=report.t_setup,
            t_solve=report.t_solve,
            duration=duration,
        )

    def _fail(self, req: _Request, exc: BaseException) -> None:
        self._release_slot(req)
        self._stats.incr("failed")
        duration = time.perf_counter() - req.t_submit
        self._stats.record_request(
            request_id=req.request_id,
            status="error",
            method=req.config.method,
            error=f"{type(exc).__name__}: {exc}",
            duration_s=duration,
        )
        log_event(
            "solve",
            request_id=req.request_id,
            status="error",
            method=req.config.method,
            error=f"{type(exc).__name__}: {exc}",
            duration=duration,
        )
        if not req.future.done():
            req.future.set_exception(exc)
