"""Opt-in resource watchdog: RSS, /dev/shm drift, pool liveness, residency.

Slow leaks only surface as outages: /dev/shm residue from a missed
sweep, RSS creep, a rank worker that died under a live pool. The
:class:`ResourceWatchdog` samples the process's resource posture every
``REPRO_OBS_WATCHDOG_MS`` and publishes it as ``repro_watchdog_*``
gauges, so dashboards see the drift long before the outage.

The shm cross-check is the core: the vmpi pool registry says which
shared-memory names *should* currently exist (job-transient blocks,
swept when the job completes); the watchdog lists ``/dev/shm`` and
flags any registered name that stays on disk for
:data:`LEAK_SAMPLES` consecutive samples — that drift means a sweep
missed it. Leaks are counted and logged once per name as a structured
``watchdog_leak`` event.

Read-only shm contract: the watchdog observes ``/dev/shm`` purely via
``os.listdir``/``os.stat``. It never attaches, creates, or unlinks a
block — reclamation stays exclusively with the vmpi codec (see the
shm-lifecycle invariant).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

from repro.obs.lockwatch import make_lock
from repro.obs.logs import log_event
from repro.obs.metrics import REGISTRY
from repro.util.config import obs_watchdog_s

#: consecutive samples a registered shm name must persist on disk
#: before it is reported as leaked
LEAK_SAMPLES = 3

_SHM_DIR = "/dev/shm"


def _rss_bytes() -> int:
    """Resident set size of this process (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return 0


def default_shm_tracked() -> set[str]:
    """Shm names the vmpi pool registry currently claims."""
    from repro.vmpi.pool import active_pools

    names: set[str] = set()
    for pool in active_pools():
        names |= pool.registered_shm_names()
    return names


def _pools_health() -> list[dict[str, Any]]:
    from repro.vmpi.pool import pools_health

    return pools_health()


class ResourceWatchdog:
    """Background sampler of this process's resource posture."""

    def __init__(
        self,
        interval_s: float | None = None,
        *,
        shm_tracked: Callable[[], set[str]] = default_shm_tracked,
        leak_samples: int = LEAK_SAMPLES,
    ):
        self._interval = obs_watchdog_s() if interval_s is None else float(interval_s)
        self._shm_tracked = shm_tracked
        self._leak_samples = int(leak_samples)
        self._lock = make_lock("obs.watchdog")
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: shm name -> consecutive samples it has persisted on disk
        self._persist: dict[str, int] = {}
        self._warned: set[str] = set()
        #: label -> callable returning {tier: bytes} (service cache/store)
        self._sources: dict[str, Callable[[], dict[str, int]]] = {}
        self._last: dict[str, Any] = {}
        self._count = 0
        self._rss = REGISTRY.gauge(
            "repro_watchdog_rss_bytes",
            "Resident set size of the sampled process",
        )
        self._shm_bytes = REGISTRY.gauge(
            "repro_watchdog_shm_tracked_bytes",
            "Bytes of vmpi-registered shared-memory blocks present in /dev/shm",
        )
        self._shm_blocks = REGISTRY.gauge(
            "repro_watchdog_shm_tracked_blocks",
            "vmpi-registered shared-memory blocks present in /dev/shm",
        )
        self._pool_workers = REGISTRY.gauge(
            "repro_watchdog_pool_workers",
            "Rank-pool worker processes, by liveness state",
            labelnames=("state",),
        )
        self._store_bytes = REGISTRY.gauge(
            "repro_watchdog_store_bytes",
            "Bytes resident per factorization-store tier",
            labelnames=("tier",),
        )
        self._leaks = REGISTRY.counter(
            "repro_watchdog_shm_leaks_total",
            "Registered shm blocks that outlived their registration",
        )
        self._samples = REGISTRY.counter(
            "repro_watchdog_samples_total",
            "Watchdog sampling passes completed",
        )

    # -- residency sources ---------------------------------------------
    def add_residency_source(
        self, name: str, fn: Callable[[], dict[str, int]]
    ) -> None:
        """Register a ``{tier: bytes}`` provider (e.g. the solve service)."""
        with self._lock:
            self._sources[name] = fn

    def remove_residency_source(self, name: str) -> None:
        with self._lock:
            self._sources.pop(name, None)

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self, interval_s: float | None = None) -> bool:
        """Start the sampler thread; idempotent. False if the period is 0."""
        period = self._interval if interval_s is None else float(interval_s)
        if period <= 0:
            return False
        with self._lock:
            if self._thread is not None:
                return True
            worker = threading.Thread(
                target=self._run, args=(period,),
                name="repro-obs-watchdog", daemon=True,
            )
            self._thread = worker
        # touched only by the thread that won the registration above;
        # staying outside the lock keeps _stop out of the guarded set
        self._stop.clear()
        worker.start()
        return True

    def stop(self) -> None:
        with self._lock:
            worker, self._thread = self._thread, None
        if worker is not None:
            self._stop.set()
            worker.join(timeout=2.0)
            self._stop.clear()

    def _run(self, period: float) -> None:
        while not self._stop.wait(period):
            try:
                self.sample()
            except Exception:  # noqa: BLE001 - sampling must never kill the host
                pass

    # -- sampling ------------------------------------------------------
    def sample(self) -> dict[str, Any]:
        """One sampling pass; returns (and retains) the readings."""
        rss = _rss_bytes()
        try:
            tracked = set(self._shm_tracked())
        except Exception:  # noqa: BLE001 - provider races teardown
            tracked = set()
        on_disk: dict[str, int] = {}
        try:
            listing = os.listdir(_SHM_DIR)
        except OSError:  # pragma: no cover - no /dev/shm on this platform
            listing = []
        for name in listing:
            if name in tracked:
                try:
                    on_disk[name] = os.stat(os.path.join(_SHM_DIR, name)).st_size
                except OSError:  # unlinked between listdir and stat
                    pass
        try:
            pools = _pools_health()
        except Exception:  # noqa: BLE001 - pool layer mid-teardown
            pools = []
        residency: dict[str, int] = {}
        for fn in dict(self._sources).values():
            try:
                for tier, nbytes in fn().items():
                    residency[tier] = residency.get(tier, 0) + int(nbytes)
            except Exception:  # noqa: BLE001 - source races shutdown
                continue
        leaks: list[tuple[str, int, int]] = []
        with self._lock:
            persist = {name: self._persist.get(name, 0) + 1 for name in on_disk}
            self._persist = persist
            for name, seen in persist.items():
                if seen >= self._leak_samples and name not in self._warned:
                    self._warned.add(name)
                    leaks.append((name, on_disk[name], seen))
            self._count += 1
            info = {
                "rss_bytes": rss,
                "shm_tracked_blocks": len(on_disk),
                "shm_tracked_bytes": sum(on_disk.values()),
                "pools": pools,
                "store_bytes": dict(residency),
                "leaked": sorted(self._warned),
                "samples": self._count,
            }
            self._last = info
        self._rss.set(rss)
        self._shm_bytes.set(sum(on_disk.values()))
        self._shm_blocks.set(len(on_disk))
        alive = sum(p["alive"] for p in pools)
        total = sum(p["workers"] for p in pools)
        self._pool_workers.set(alive, state="alive")
        self._pool_workers.set(total - alive, state="dead")
        for tier, nbytes in residency.items():
            self._store_bytes.set(nbytes, tier=tier)
        for name, nbytes, seen in leaks:
            self._leaks.inc()
            log_event(
                "watchdog_leak", name=name, bytes=nbytes, samples=seen,
            )
        self._samples.inc()
        return info

    def last(self) -> dict[str, Any]:
        """The most recent sample's readings (empty before any sample)."""
        with self._lock:
            return dict(self._last)

    def reset(self) -> None:
        """Drop persistence/leak state (tests only)."""
        with self._lock:
            self._persist = {}
            self._warned = set()
            self._last = {}
            self._count = 0


#: the process-wide watchdog (started by the service when
#: ``REPRO_OBS_WATCHDOG_MS`` > 0, or manually via ``watchdog.start``)
watchdog = ResourceWatchdog()
