"""Tier 1 of the resident store: factorization shards living in rank workers.

After a ``factor`` on rank processes, each pool worker already *holds*
its ``WorkerResult`` — the ``PartialLU``/``BoxRecord`` tree it just
built. Re-shipping that tree parent -> worker on every ``solve``
dispatch would be the dominant cost of repeated solves, and the
paper's workers never do it: they are started once and keep what they
factored. This module keeps the shards where the work is, and it is
how *every* solve on the process backend runs:

* **worker side** — a per-process registry maps entry ids to retained
  :class:`~repro.parallel.worker.WorkerResult` shards, LRU-capped at
  :data:`RESIDENT_MAX`. :func:`factor_retain_worker` populates
  it as a free side effect of the factor job; :func:`seed_worker`
  (re)populates it explicitly (one full-tree ship) after a respawn or a
  cap eviction; :func:`resident_solve_worker` solves from it, shipping
  only ``(entry_id, leaf ownership, rhs)``; :func:`drop_worker`
  invalidates on cache eviction.
* **parent side** — a :class:`ResidentHandle` tracks *which* pool
  cohort holds the shards via the pool's ``generation`` epoch, reseeds
  transparently when the cohort changed (worker death -> respawn or
  replacement), and retries exactly once when workers report the entry
  missing.

The resident solve runs :func:`~repro.parallel.solve.solve_shards` —
the identical scatter / color-round / reduction / gather communication
pattern as the thread backend's full-tree ``solve_worker`` — so
per-rank message and byte counters, and the solution bits, are the
same on both backends. Only the *dispatch payload* differs:
O(rhs) instead of O(factorization).
"""

from __future__ import annotations

import itertools
import os
from collections import OrderedDict

import numpy as np

from typing import TYPE_CHECKING

from repro.obs import REGISTRY, trace
from repro.obs.lockwatch import make_lock
from repro.vmpi.backend import adopt_rank_reports

# the parallel engine imports this module (driver dispatches the
# retaining factor worker), so its symbols are imported at call time —
# inside the functions below — to keep the package graph acyclic
if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.parallel.worker import WorkerResult
    from repro.vmpi.comm import Comm

_SEEDS = REGISTRY.counter(
    "repro_store_resident_seeds_total",
    "Full-tree seeding dispatches that (re)materialized worker-resident shards",
)
_RES_SOLVES = REGISTRY.counter(
    "repro_store_resident_solves_total",
    "Solve dispatches served from worker-resident factorization shards",
)
_RES_MISSES = REGISTRY.counter(
    "repro_store_resident_misses_total",
    "Resident solves that found the entry gone worker-side and reseeded",
)

#: most factorizations each rank worker keeps resident. The cap bounds
#: shards whose parent-side object was collected without ``drop``; past
#: it the least recently solved entry goes, and the next solve against
#: it reseeds from the parent
RESIDENT_MAX = 8

#: substring the parent greps out of a failed rank's error description to
#: distinguish "shards are gone, reseed and retry" from a real solve error
MISS_MARKER = "ResidentEntryMissing"


class ResidentEntryMissing(RuntimeError):
    """Raised rank-side when a solve names an entry no longer resident."""


# ----------------------------------------------------------------------
# worker-side registry (module state: one per rank process)
# ----------------------------------------------------------------------
_RESIDENT: "OrderedDict[str, WorkerResult]" = OrderedDict()


def _retain(entry_id: str, my: WorkerResult) -> None:
    """Keep this rank's shard, LRU-evicting beyond the resident cap.

    Retention order is identical on every rank (all ranks see the same
    job sequence), so cap evictions are symmetric: a later solve either
    finds the entry on *all* ranks or misses on all — never a mixed
    outcome that would strand some ranks in receives.
    """
    _RESIDENT[entry_id] = my
    _RESIDENT.move_to_end(entry_id)
    while len(_RESIDENT) > RESIDENT_MAX:
        _RESIDENT.popitem(last=False)


def resident_entries() -> list[str]:
    """Entry ids currently resident in *this* process (introspection)."""
    return list(_RESIDENT)


def factor_retain_worker(comm: Comm, kernel, nlevels, domain, opts, entry_id: str):
    """:func:`~repro.parallel.worker.factor_worker`, retaining the shard.

    The retained object is the very ``WorkerResult`` the job returns
    (packing it for the result channel copies the arrays out and never
    mutates the original), so retention adds zero communication and the
    factor job's counters are unchanged.
    """
    from repro.parallel.worker import factor_worker

    my = factor_worker(comm, kernel, nlevels, domain, opts)
    _retain(entry_id, my)
    return my


def seed_worker(comm: Comm, workers: list[WorkerResult], entry_id: str):
    """(Re)materialize the shards: each rank retains its slice.

    ``workers`` arrives through the pool's shared dispatch segment; the
    decoded arrays keep its mapping alive after the dispatcher's
    post-job sweep unlinks the name, so the retained shard stays valid
    for the lifetime of the worker process.
    """
    _retain(entry_id, workers[comm.rank])
    return comm.rank


def resident_solve_worker(comm: Comm, entry_id: str, leaf_ids_list, n: int, b):
    """Solve from the resident shard; dispatch payload is O(rhs)."""
    from repro.parallel.solve import solve_shards

    my = _RESIDENT.get(entry_id)
    if my is None:
        raise ResidentEntryMissing(
            f"{MISS_MARKER}: entry {entry_id!r} not resident in rank {comm.rank}"
        )
    _RESIDENT.move_to_end(entry_id)
    return solve_shards(comm, my, leaf_ids_list, n, b)


def drop_worker(comm: Comm, entry_id: str):
    """Invalidate one entry (cache eviction); True when it was resident."""
    return _RESIDENT.pop(entry_id, None) is not None


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
_ENTRY_COUNTER = itertools.count()


def new_entry_id() -> str:
    """Process-unique id naming one factorization's resident shards."""
    return f"res-{os.getpid()}-{next(_ENTRY_COUNTER)}"


def resident_supported(backend) -> bool:
    """Whether ``backend`` hosts worker-resident shards: rank processes
    do (thread ranks already share the parent's memory)."""
    from repro.vmpi.process_backend import ProcessBackend

    return isinstance(backend, ProcessBackend)


class ResidentHandle:
    """Parent-side view of one factorization's worker-resident shards.

    Tracks the exact pool object and worker-cohort ``generation`` that
    hold the shards; ``solve`` reseeds before dispatching whenever the
    cohort changed underneath it (worker death -> respawn or
    replacement) and retries once on a worker-reported miss (resident-cap
    eviction). The handle is process-local — it is dropped from pickled
    factorizations and lazily rebuilt in the attaching process.
    """

    def __init__(self, entry_id: str, p: int, backend, workers: list[WorkerResult]):
        self.entry_id = entry_id
        self.p = int(p)
        self.backend = backend
        self.workers = workers
        self._lock = make_lock("store.resident")
        self._pool = None
        self._generation = -1

    def adopt_pool(self, pool) -> None:
        """Record that ``pool``'s current cohort already holds the shards
        (factor-time retention); ``None`` marks the handle unseeded."""
        with self._lock:
            self._pool = pool
            self._generation = -1 if pool is None else pool.generation

    def _get_pool(self):
        from repro.vmpi.pool import get_pool

        return get_pool(self.p, self.backend.start_method)

    def _seed_locked(self, pool) -> None:
        with trace.span("store.resident_seed", entry=self.entry_id):
            pool.run(seed_worker, (self.workers, self.entry_id))
        _SEEDS.inc()
        self._pool = pool
        self._generation = pool.generation

    def solve(self, n: int, b: np.ndarray, *, cost_model=None, timeout: float = 3600.0):
        """Dispatch one resident solve; returns the :class:`SPMDRun`.

        Lock order: ``store.resident`` is acquired *before* any
        ``vmpi.pool`` lock and nothing in vmpi ever takes a store lock,
        so the edge is one-directional (see INVARIANTS.md).
        """
        leaf_ids_list = [w.leaf_ids for w in self.workers]
        args = (self.entry_id, leaf_ids_list, n, b)
        with self._lock:
            pool = self._get_pool()
            if pool is not self._pool or pool.generation != self._generation:
                self._seed_locked(pool)
            try:
                with trace.span("store.resident_solve", entry=self.entry_id):
                    run = pool.run(
                        resident_solve_worker, args,
                        cost_model=cost_model, timeout=timeout,
                    )
            except RuntimeError as exc:
                if MISS_MARKER not in str(exc):
                    raise
                # worker-side cap eviction (symmetric across ranks):
                # reseed the current cohort and retry exactly once
                _RES_MISSES.inc()
                pool = self._get_pool()
                self._seed_locked(pool)
                with trace.span("store.resident_solve", entry=self.entry_id):
                    run = pool.run(
                        resident_solve_worker, args,
                        cost_model=cost_model, timeout=timeout,
                    )
        _RES_SOLVES.inc()
        return adopt_rank_reports(run)

    def drop(self) -> None:
        """Invalidate the worker-side entries (cache eviction hook).

        Best-effort: if the cohort that held the shards is already gone
        (pool died or respawned) there is nothing to invalidate — the
        respawn already swept the registry with the old process.
        """
        with self._lock:
            pool, gen = self._pool, self._generation
            self._pool = None
            self._generation = -1
        if pool is None or not pool.alive or pool.generation != gen:
            return
        try:
            pool.run(drop_worker, (self.entry_id,))
        except Exception:  # noqa: BLE001 - invalidation must not mask eviction
            pass
