"""The resident factorization store: one facade over the three tiers.

:class:`FactorizationStore` sits behind the serving layer's
:class:`~repro.service.cache.FactorizationCache` (tier 0, in-process
objects) and extends it across process and restart boundaries:

* **shared** (tier 2, :mod:`repro.store.shared`) — entries published as
  one named shm segment + sidecar; other processes attach zero-copy.
* **disk** (tier 3, :mod:`repro.store.disk`) — header-checked,
  SHA-256-verified spill files under ``REPRO_STORE_DIR``; cache misses
  consult them before factoring, giving warm restarts.

(Tier 1 — worker-resident shards — attaches to the factorization
itself; see :mod:`repro.store.resident`.)

Single-flight is extended across processes with an ``O_CREAT|O_EXCL``
lockfile per entry: the winner builds and publishes, losers poll the
store until the entry appears, the owner dies, or
:data:`LOCK_TIMEOUT_S` passes — then build locally rather than
hang on a peer. All store work happens *outside* the cache lock, and
the store's own lock is a leaf: nothing in vmpi or service is called
while holding it except pure file/shm codec operations.
"""

from __future__ import annotations

import os
import time

from repro.obs import REGISTRY, trace
from repro.obs.lockwatch import make_lock
from repro.store.disk import key_digest, load_spill, remove_quiet, spill_entry
from repro.store.shared import (
    _pid_alive,
    attach_entry,
    publish_entry,
    release_entry,
    sidecar_path,
)

#: seconds a process waits on another process's in-flight build of the
#: same entry before giving up and factoring locally
LOCK_TIMEOUT_S = 30.0

_HITS = REGISTRY.counter(
    "repro_store_hits_total",
    "Cache misses satisfied by the factorization store, by tier",
    labelnames=("tier",),
)
_MISSES = REGISTRY.counter(
    "repro_store_misses_total",
    "Cache misses the store could not satisfy (fresh factorizations)",
)
_PUBLISHES = REGISTRY.counter(
    "repro_store_publishes_total",
    "Factorizations published as shared-memory entries",
)
_SPILLS = REGISTRY.counter(
    "repro_store_spills_total",
    "Factorizations spilled to disk (eviction/shutdown warm-start files)",
)
_INVALID = REGISTRY.counter(
    "repro_store_invalid_files_total",
    "Store files rejected at load time, by reason",
    labelnames=("reason",),
)
_SHARED_BYTES = REGISTRY.gauge(
    "repro_store_shared_bytes",
    "Bytes this process holds in published/attached store shm blocks",
)

_POLL_S = 0.05


class FactorizationStore:
    """Cross-process + on-disk home for factorization cache entries."""

    def __init__(
        self,
        root: str,
        *,
        shared: bool = True,
        spill: bool = True,
        lock_timeout: float = LOCK_TIMEOUT_S,
    ):
        self.root = str(root)
        self.shared = bool(shared)
        self.spill_enabled = bool(spill)
        self.lock_timeout = float(lock_timeout)
        os.makedirs(self.root, exist_ok=True)
        self._lock = make_lock("store.index")
        #: digest -> [hold, holds] for entries this process published or
        #: attached (``hold``: the entry's :class:`~repro.store.shared.SharedHold`);
        #: ``holds`` counts in-process holders so two caches in one
        #: process release the shm refcount exactly once
        self._held: dict[str, list] = {}

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _spill_path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.spill")

    def _lock_path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.lock")

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def shared_bytes(self) -> int:
        """Bytes this process holds in store shm blocks."""
        with self._lock:
            return sum(hold.nbytes for hold, _ in self._held.values())

    def _account_locked(self) -> None:
        _SHARED_BYTES.set(sum(hold.nbytes for hold, _ in self._held.values()))

    def residency(self) -> dict[str, int]:
        """``{tier: bytes}`` across the store's tiers (the ``/debug`` feed).

        ``shared`` is this process's held shm bytes; ``disk`` totals the
        warm-start spill files currently under :attr:`root` (a readdir
        per dashboard render, not a hot path).
        """
        disk = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        for name in names:
            if name.endswith(".spill"):
                try:
                    disk += os.stat(os.path.join(self.root, name)).st_size
                except OSError:  # racing a concurrent eviction/cleanup
                    pass
        return {"shared": self.shared_bytes(), "disk": disk}

    # ------------------------------------------------------------------
    # lookup / build
    # ------------------------------------------------------------------
    def load(self, key):
        """``(fact, tier)`` from the shared or disk tier, else ``None``."""
        digest = key_digest(key)
        if self.shared:
            with trace.span("store.attach"):
                fact, hold, reason = attach_entry(self.root, digest, key)
            if fact is not None:
                with self._lock:
                    held = self._held.setdefault(digest, [hold, 0])
                    held[1] += 1
                    self._account_locked()
                _HITS.inc(tier="shared")
                return fact, "shared"
            if reason is not None:
                _INVALID.inc(reason=reason)
        if self.spill_enabled:
            with trace.span("store.load"):
                fact, reason = load_spill(self._spill_path(digest), key)
            if fact is not None:
                _HITS.inc(tier="disk")
                return fact, "disk"
            if reason is not None:
                _INVALID.inc(reason=reason)
        return None

    def fetch_or_build(self, key, builder):
        """``(fact, tier)`` — tier ``None`` when ``builder`` actually ran.

        Exactly one *process* builds a given entry at a time: the
        lockfile winner factors and publishes; everyone else polls the
        store and only falls back to a local build once the owner dies
        or the timeout passes.
        """
        deadline = time.monotonic() + self.lock_timeout
        while True:
            got = self.load(key)
            if got is not None:
                return got
            digest = key_digest(key)
            if self._try_lock(digest):
                _MISSES.inc()
                try:
                    fact = builder()
                    self._publish_or_spill(digest, key, fact)
                finally:
                    remove_quiet(self._lock_path(digest))
                return fact, None
            if time.monotonic() > deadline:
                # a live peer is still building but we will not wait
                # longer: build privately (not published — the owner's
                # publication stands)
                _MISSES.inc()
                return builder(), None
            time.sleep(_POLL_S)

    def _publish_or_spill(self, digest: str, key, fact) -> None:
        """Make a fresh build visible to waiting peers (best-effort)."""
        try:
            if self.shared:
                with trace.span("store.publish"):
                    hold = publish_entry(self.root, digest, key, fact)
                with self._lock:
                    held = self._held.setdefault(digest, [hold, 0])
                    held[1] += 1
                    self._account_locked()
                _PUBLISHES.inc()
            elif self.spill_enabled:
                with trace.span("store.spill"):
                    spill_entry(self._spill_path(digest), key, fact)
                _SPILLS.inc()
        except Exception:  # noqa: BLE001 - publishing is an optimization;
            # the build itself succeeded and must be served
            pass

    def _try_lock(self, digest: str) -> bool:
        path = self._lock_path(digest)
        for _ in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                try:
                    with open(path, "rb") as fh:
                        pid = int(fh.read().strip() or b"0")
                except (OSError, ValueError):
                    return False  # racing creator mid-write; poll
                if pid and not _pid_alive(pid):
                    remove_quiet(path)  # dead owner: reap and retake
                    continue
                return False
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            return True
        return False

    # ------------------------------------------------------------------
    # spill / release (cache eviction + shutdown hooks)
    # ------------------------------------------------------------------
    def spill(self, key, fact) -> bool:
        """Write the warm-start file for an evicted/shutdown entry."""
        if not self.spill_enabled:
            return False
        digest = key_digest(key)
        try:
            with trace.span("store.spill"):
                spill_entry(self._spill_path(digest), key, fact)
        except Exception:  # noqa: BLE001 - spill failure must not break eviction
            return False
        _SPILLS.inc()
        return True

    def release(self, key) -> None:
        """Drop this process's hold on ``key``'s shared entry (if any)."""
        digest = key_digest(key)
        with self._lock:
            held = self._held.get(digest)
            if held is None:
                return
            held[1] -= 1
            last = held[1] <= 0
            if last:
                del self._held[digest]
            hold = held[0]
            self._account_locked()
        if last:
            release_entry(self.root, digest, hold)

    def holds_shared(self, key) -> bool:
        """Whether this process currently holds ``key``'s shm entry."""
        with self._lock:
            return key_digest(key) in self._held

    def shared_published(self, key) -> bool:
        """Whether a shared sidecar for ``key`` exists on disk."""
        return os.path.exists(sidecar_path(self.root, key_digest(key)))

    def close(self) -> None:
        """Release every held shared entry (service shutdown)."""
        with self._lock:
            held, self._held = self._held, {}
            self._account_locked()
        for digest, (hold, _holds) in held.items():
            release_entry(self.root, digest, hold)
