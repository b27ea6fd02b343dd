"""Fingerprint-keyed factorization cache with single-flight builds.

The economics the paper leans on — factor once, solve cheaply many
times — only pay off across *callers* if the expensive product is
shared. This cache maps ``(problem fingerprint, method setup key)``
to the built :class:`~repro.api.strategies.Factorization`:

* **single-flight**: N concurrent requests for an unfactored operator
  trigger exactly one build; the other N-1 block on an event until the
  leader finishes (or propagate its failure).
* **LRU with a byte budget**: entries are charged their
  ``memory_bytes()``; inserting past the budget evicts the least
  recently used finished entries. A single entry larger than the whole
  budget stays resident until displaced (the budget is a high-water
  mark, not a per-entry cap).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

from repro.obs import REGISTRY
from repro.obs.lockwatch import make_lock

_EVICTIONS = REGISTRY.counter(
    "repro_service_cache_evictions_total",
    "Factorizations dropped by the cache LRU byte-budget policy",
)


class _Entry:
    """One cache slot: a finished factorization or an in-flight build."""

    __slots__ = (
        "key", "event", "fact", "error", "nbytes", "build_seconds",
        "charge", "store_tier",
    )

    def __init__(self, key: Hashable):
        self.key = key
        self.event = threading.Event()
        self.fact: Any = None
        self.error: BaseException | None = None
        self.nbytes = 0
        self.build_seconds = 0.0
        #: bytes charged against the LRU budget. Equals ``nbytes`` for
        #: privately owned entries; 0 for shm-attached store entries,
        #: whose blocks are counted once process-wide by the store's
        #: ``repro_store_shared_bytes`` gauge instead of once per cache
        self.charge = 0
        #: which store tier satisfied the miss ("shared"/"disk"), or
        #: ``None`` for a locally built entry
        self.store_tier: str | None = None

    @property
    def ready(self) -> bool:
        return self.event.is_set() and self.error is None


class CacheLookup(NamedTuple):
    """What :meth:`FactorizationCache.get_or_build` reports back."""

    fact: Any
    hit: bool            #: the build was already done or in flight
    waited: bool         #: hit, but on an in-flight build (single-flight)
    build_seconds: float  #: wall seconds of the build this entry cost (0 on hit)
    nbytes: int = 0      #: the entry's memory_bytes(), computed once at insert
    store_tier: str | None = None  #: store tier a miss was served from, if any


class FactorizationCache:
    """LRU byte-budget cache of method setup products.

    Parameters
    ----------
    max_bytes:
        Eviction high-water mark for the summed ``memory_bytes()`` of
        resident entries.
    store:
        Optional :class:`~repro.store.FactorizationStore` behind the
        cache: misses consult its shared/disk tiers (and cross-process
        single-flight) before factoring; evicted and shutdown-time
        entries spill to it; shm-attached entries charge 0 against the
        byte budget.
    """

    def __init__(
        self,
        max_bytes: int,
        *,
        store: Any = None,
    ):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        #: optional :class:`~repro.store.FactorizationStore`: misses
        #: consult it before building, evicted/shutdown entries spill to
        #: it. All store calls happen outside the cache lock.
        self._store = store
        self._lock = make_lock("service.cache")
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self.evictions = 0
        self._closed = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def bytes_resident(self) -> int:
        """Bytes this process privately owns for finished entries.

        Shm-attached store entries charge 0 here — their blocks are
        counted once process-wide by ``repro_store_shared_bytes``, not
        once per cache that mapped them.
        """
        with self._lock:
            return sum(e.charge for e in self._entries.values() if e.ready)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._entries.get(key)
        return entry is not None and entry.ready

    # ------------------------------------------------------------------
    # the single-flight lookup
    # ------------------------------------------------------------------
    def get_or_build(
        self, key: Hashable, builder: Callable[[], Any], *, timeout: float | None = None
    ) -> CacheLookup:
        """Return the cached factorization for ``key``, building it once.

        Exactly one caller per key runs ``builder``; concurrent callers
        block until it finishes and share the product. A failed build
        raises in every waiter and leaves no entry behind (the next
        request retries).
        """
        with self._lock:
            entry = self._entries.get(key)
            leader = entry is None
            if leader:
                entry = _Entry(key)
                self._entries[key] = entry
            else:
                self._entries.move_to_end(key)
            waited = not leader and not entry.event.is_set()

        if not leader:
            if not entry.event.wait(timeout):
                raise TimeoutError(f"factorization build for {key!r} timed out")
            if entry.error is not None:
                raise entry.error
            return CacheLookup(entry.fact, True, waited, 0.0, entry.nbytes, entry.store_tier)

        try:
            t0 = time.perf_counter()
            if self._store is None:
                fact, tier = builder(), None
            else:
                # the store consults the shared/disk tiers and extends
                # single-flight across processes; called outside the
                # cache lock (it can factor, publish, or poll a peer)
                fact, tier = self._store.fetch_or_build(key, builder)
            entry.build_seconds = time.perf_counter() - t0
            # the accounting is part of the build: if it raises, the
            # followers must see that error, not wait for their timeout
            nbytes = int(fact.memory_bytes()) if hasattr(fact, "memory_bytes") else 0
        except BaseException as exc:
            entry.error = exc
            with self._lock:
                # failed builds are not cached; followers see the error,
                # later requests start a fresh flight
                self._entries.pop(key, None)
            entry.event.set()
            raise
        entry.fact = fact
        entry.store_tier = tier
        entry.nbytes = nbytes
        # an shm-attached entry's arrays live in store-owned shared
        # blocks: charge them to the budget once process-wide (the
        # store's gauge), not once per cache
        entry.charge = 0 if tier == "shared" else entry.nbytes
        entry.event.set()
        with self._lock:
            # a build finishing after close() must not stay resident:
            # nothing would ever drop the entry
            orphaned = self._closed and self._entries.get(key) is entry
            if orphaned:
                del self._entries[key]
        if orphaned:
            self._release(entry)
        else:
            self._enforce_budget(keep=key)
        return CacheLookup(fact, False, False, entry.build_seconds, entry.nbytes, tier)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _enforce_budget(self, *, keep: Hashable | None = None) -> None:
        """Evict LRU finished entries until the budget holds."""
        evicted: list[_Entry] = []
        with self._lock:
            def resident() -> int:
                return sum(e.charge for e in self._entries.values() if e.ready)

            while resident() > self.max_bytes:
                victim_key = next(
                    (
                        k
                        for k, e in self._entries.items()
                        if e.ready and k != keep
                    ),
                    None,
                )
                if victim_key is None:
                    break  # only in-flight entries or the newcomer left
                evicted.append(self._entries.pop(victim_key))
                self.evictions += 1
                _EVICTIONS.inc()
        for entry in evicted:
            self._release(entry)

    def evict(self, key: Hashable) -> bool:
        """Explicitly drop one finished entry; True when it existed."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not entry.ready:
                return False
            del self._entries[key]
            self.evictions += 1
            _EVICTIONS.inc()
        self._release(entry)
        return True

    def clear(self) -> None:
        """Drop every finished entry (in-flight builds complete unseen)."""
        with self._lock:
            finished = [k for k, e in self._entries.items() if e.ready]
            evicted = [self._entries.pop(k) for k in finished]
        for entry in evicted:
            self._release(entry)

    def close(self) -> None:
        """Clear the cache and release any build that finishes later.

        After closing, entries are still buildable (callers already in
        flight complete normally) but are released immediately instead
        of becoming resident — so a factorization finishing after the
        owning service shut down cannot keep its worker-resident shards
        forever.
        """
        with self._lock:
            self._closed = True
        self.clear()

    def _release(self, entry: _Entry) -> None:
        """Free an evicted entry: spill, invalidate, callback.

        Order matters: (1) spill to the store's disk tier while the
        arrays are certainly alive (skipped when the entry was *loaded*
        from disk — the file is already there); (2) invalidate the
        worker-resident shards so rank workers stop holding memory for
        an entry the parent no longer serves; (3) drop this process's
        hold on the shared shm entry (the last live holder unlinks,
        leaving /dev/shm as found).

        ``entry.fact`` is deliberately left in place: a concurrent
        reader that found the entry ready before the eviction still
        returns it safely; the arrays are freed once the last such
        reader drops its reference (the cache itself no longer holds
        the entry).
        """
        fact = entry.fact
        if self._store is not None and fact is not None and entry.store_tier != "disk":
            self._store.spill(entry.key, fact)
        handle = getattr(fact, "resident", None)
        if handle is not None and hasattr(handle, "drop"):
            handle.drop()
        if self._store is not None:
            self._store.release(entry.key)
