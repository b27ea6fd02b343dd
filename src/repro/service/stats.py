"""Per-service metrics: cache behavior, batching, and latency.

A :class:`SolveService` owns one :class:`StatsCollector`; every request
records its outcome into the collector's private metric families, and
:meth:`StatsCollector.snapshot` reads them into an immutable
:class:`ServiceStats` report (the ``GET /stats`` payload of the HTTP
front, which serves the families themselves on ``GET /metrics``).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any

from repro.obs import COUNT_BUCKETS, LATENCY_BUCKETS, MetricsRegistry
from repro.obs.lockwatch import make_lock

#: how many latency samples back the percentile estimates (fixed memory)
RESERVOIR_SIZE = 1024

#: completed/failed requests retained for the /debug dashboard
RECENT_REQUESTS = 32


class _Reservoir:
    """Fixed-size uniform sample of a value stream (Vitter's algorithm R).

    The latency percentiles used to come from a sliding window, whose
    memory grew with the window and whose view forgot everything older
    than the last N requests. A reservoir keeps O(size) memory forever
    while remaining a uniform sample over *every* observation. The RNG
    is seeded: percentile estimates need no entropy, and a fixed seed
    keeps test runs reproducible.
    """

    __slots__ = ("_values", "_seen", "_rng", "_size")

    def __init__(self, size: int = RESERVOIR_SIZE, seed: int = 0x5EED):
        self._size = int(size)
        self._values: list[float] = []
        self._seen = 0
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self._seen += 1
        if len(self._values) < self._size:
            self._values.append(value)
            return
        j = self._rng.randrange(self._seen)
        if j < self._size:
            self._values[j] = value

    @property
    def seen(self) -> int:
        """Observations offered so far (not the retained count)."""
        return self._seen

    def values(self) -> list[float]:
        return list(self._values)


@dataclass(frozen=True)
class ServiceStats:
    """Frozen snapshot of a service's counters.

    Attributes
    ----------
    requests / completed / failed:
        Submitted, successfully finished, and errored request counts.
    cache_hits / cache_misses:
        Factorization-cache outcomes per request. A "hit" includes
        single-flight followers (requests that waited on a factor
        already in flight) — they paid latency but no compute.
    single_flight_waits:
        How many of the hits waited on an in-flight build instead of
        finding a finished entry (the thundering-herd absorption).
    factorizations:
        Builders actually executed (the expensive events).
    rejected:
        Requests refused by admission control (the pending queue was
        at ``max_pending``; HTTP clients see a structured 429).
    store_hits_shared / store_hits_disk:
        Cache misses satisfied by the resident store instead of a
        fresh factorization — attached zero-copy from another
        process's shm blocks, or loaded from a warm-start spill file.
    evictions:
        Cache entries dropped by the byte-budget LRU policy.
    bytes_resident / entries_resident:
        Current cache footprint (privately owned bytes; shm-attached
        entries are counted in ``bytes_shared`` once process-wide).
    bytes_shared:
        Bytes held in store shared-memory blocks by this process.
    batches / batched_requests:
        Coalesced block solves dispatched, and requests carried by
        them; ``mean_batch_occupancy`` is their ratio and
        ``max_batch_occupancy`` the largest single batch.
    p50_latency_s / p95_latency_s:
        Submit-to-completion latency percentiles, estimated from a
        fixed-size uniform reservoir (:data:`RESERVOIR_SIZE` samples,
        Vitter's algorithm R) over *all* completed requests — O(1)
        memory regardless of traffic (``None`` before the first
        completion).
    health:
        The process-wide solver-health rollup
        (:meth:`~repro.obs.health.HealthMonitor.snapshot`): per-level
        skeleton rank/compression aggregates and per-method Krylov
        convergence counters. ``None`` when the snapshot was taken
        without one.
    """

    requests: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    single_flight_waits: int = 0
    factorizations: int = 0
    store_hits_shared: int = 0
    store_hits_disk: int = 0
    evictions: int = 0
    bytes_resident: int = 0
    bytes_shared: int = 0
    entries_resident: int = 0
    batches: int = 0
    batched_requests: int = 0
    mean_batch_occupancy: float = 0.0
    max_batch_occupancy: int = 0
    p50_latency_s: float | None = None
    p95_latency_s: float | None = None
    health: dict[str, Any] | None = None

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction over all cache lookups (0 when none)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form (adds the derived ``hit_rate``)."""
        out = asdict(self)
        out["hit_rate"] = self.hit_rate
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


#: the ``kind`` label values of ``repro_service_events_total`` — one
#: :class:`ServiceStats` count each
EVENT_KINDS = (
    "requests", "completed", "failed", "rejected", "cache_hits", "cache_misses",
    "single_flight_waits", "factorizations", "store_hits_shared", "store_hits_disk",
)


class StatsCollector:
    """Thread-safe recorder behind :class:`ServiceStats`.

    Counts live only in the collector's own :class:`MetricsRegistry`
    (:attr:`registry`), one per service, so ``/stats`` counts this
    instance however many services share the process; a snapshot reads
    them back. Kept beside the families, because no family holds them:
    the latency reservoir (exact percentiles), the largest batch, the
    admission count and the recent-requests ring.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._lock = make_lock("service.stats")
        self._max_batch = 0
        self._pending = 0
        self._latencies = _Reservoir()
        self._recent: deque[dict[str, Any]] = deque(maxlen=RECENT_REQUESTS)
        self._m_events = self.registry.counter(
            "repro_service_events_total",
            "Service request lifecycle events by kind",
            labelnames=("kind",),
        )
        self._m_latency = self.registry.histogram(
            "repro_service_request_seconds",
            "Submit-to-completion latency of service requests",
            buckets=LATENCY_BUCKETS,
        )
        self._m_occupancy = self.registry.histogram(
            "repro_service_batch_occupancy",
            "Requests coalesced per dispatched batch",
            buckets=COUNT_BUCKETS,
        )

    def incr(self, kind: str) -> None:
        if kind not in EVENT_KINDS:
            raise KeyError(f"unknown service event {kind!r}")
        self._m_events.inc(kind=kind)

    # ------------------------------------------------------------------
    # admission control (bounded pending queue)
    # ------------------------------------------------------------------
    def admit(self, limit: int) -> bool:
        """Claim one pending slot; False when ``limit`` are in flight.

        ``limit <= 0`` disables the bound. Successful admissions must
        be balanced by :meth:`release` when the request leaves the
        system (completed, failed, or cancelled).
        """
        with self._lock:
            if limit > 0 and self._pending >= limit:
                return False
            self._pending += 1
        return True

    def release(self) -> None:
        """Return one pending slot (request finished either way)."""
        with self._lock:
            self._pending = max(0, self._pending - 1)

    @property
    def pending(self) -> int:
        """Requests currently holding an admission slot."""
        with self._lock:
            return self._pending

    def record_batch(self, occupancy: int) -> None:
        with self._lock:
            self._max_batch = max(self._max_batch, occupancy)
        self._m_occupancy.observe(occupancy)

    def record_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.add(float(seconds))
        self._m_latency.observe(seconds)

    def record_request(self, **info: Any) -> None:
        """Push one finished request onto the recent-requests ring.

        The ring backs the ``/debug`` dashboard's request table; it
        keeps the last :data:`RECENT_REQUESTS` entries (newest last)
        and is independent of the latency reservoir.
        """
        with self._lock:
            self._recent.append(dict(info))

    def recent_requests(self) -> list[dict[str, Any]]:
        """The retained finished requests, oldest first."""
        with self._lock:
            return list(self._recent)

    def snapshot(
        self,
        *,
        bytes_resident: int = 0,
        entries_resident: int = 0,
        evictions: int = 0,
        bytes_shared: int = 0,
        health: dict[str, Any] | None = None,
    ) -> ServiceStats:
        events = self._m_events.series()
        occupancy = self._m_occupancy.snapshot()
        with self._lock:
            lats = sorted(self._latencies.values())
            max_batch = self._max_batch
        p50 = _percentile(lats, 0.50) if lats else None
        p95 = _percentile(lats, 0.95) if lats else None
        batches = occupancy["count"]
        return ServiceStats(
            **{kind: int(events.get((kind,), 0)) for kind in EVENT_KINDS},
            evictions=int(evictions),
            bytes_resident=int(bytes_resident),
            bytes_shared=int(bytes_shared),
            entries_resident=int(entries_resident),
            batches=batches,
            batched_requests=int(occupancy["sum"]),
            mean_batch_occupancy=occupancy["sum"] / batches if batches else 0.0,
            max_batch_occupancy=max_batch,
            p50_latency_s=p50,
            p95_latency_s=p95,
            health=health,
        )
