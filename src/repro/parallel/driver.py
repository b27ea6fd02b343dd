"""Driver for the distributed factorization engine.

``parallel_srs_factor(kernel, p)`` launches the SPMD factorization on
``p`` simulated ranks and returns a :class:`ParallelFactorization`;
its ``solve`` runs the distributed sweeps and reports simulated timing
(``t_fact``/``t_solve`` split into ``t_comp``/``t_other``) and
communication counters, mirroring the paper's Tables II/IV/VII.

This is the engine behind ``repro.solve(problem, b,
SolveConfig(execution="thread"|"process"|"auto", ranks=p))`` — the
facade (:mod:`repro.api`) is the preferred entry point for workloads;
call this directly when driving a bare kernel matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.options import SRSOptions
from repro.core.stats import RankStats
from repro.geometry.domain import Square
from repro.kernels.base import KernelMatrix
from repro.obs import health
from repro.parallel.ownership import LevelLayout, max_ranks_for_tree
from repro.parallel.solve import solve_worker
from repro.parallel.worker import WorkerResult, factor_worker
from repro.store.resident import (
    ResidentHandle,
    factor_retain_worker,
    new_entry_id,
    resident_supported,
)
from repro.tree.quadtree import QuadTree
from repro.vmpi.backend import SPMDRun, resolve_backend
from repro.vmpi.clock import CostModel
from repro.vmpi.launcher import run_spmd


@dataclass
class ParallelFactorization:
    """Distributed RS-S factorization spread over ``p`` simulated ranks."""

    p: int
    n: int
    nlevels: int
    opts: SRSOptions
    workers: list[WorkerResult]
    factor_run: SPMDRun
    cost_model: CostModel | None = None
    #: the resolved :class:`~repro.vmpi.backend.ExecutionBackend`
    #: *instance* the factorization ran on. ``solve`` dispatches through
    #: the same instance, so a process backend reuses its
    #: :class:`~repro.vmpi.pool.RankPool` — repeated solves spawn no
    #: processes (the facade's ``Solver`` caches this object alongside
    #: the factorization).
    backend: object = None
    last_solve_run: SPMDRun | None = None
    #: parent-side :class:`~repro.store.resident.ResidentHandle` when the
    #: rank workers retain this factorization's shards (the process
    #: backend); process-local — dropped on pickling and lazily rebuilt
    #: by ``solve`` in the new process
    resident: object = field(default=None, repr=False)
    _stats: RankStats | None = field(default=None, repr=False)
    _memory_bytes: int | None = field(default=None, repr=False)

    def __getstate__(self) -> dict:
        """What crosses a process boundary (the store's shared and disk
        tiers): everything but the resident handle, which holds a live
        pool and lock, and the last solve's run, a per-call result."""
        return dict(self.__dict__, resident=None, last_solve_run=None)

    # -- timing (simulated) ---------------------------------------------
    @property
    def t_fact(self) -> float:
        return self.factor_run.elapsed

    @property
    def t_fact_comp(self) -> float:
        return self.factor_run.compute

    @property
    def t_fact_other(self) -> float:
        return self.factor_run.other

    @property
    def t_solve(self) -> float:
        if self.last_solve_run is None:
            raise RuntimeError("call solve() first")
        return self.last_solve_run.elapsed

    # -- results ----------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Distributed application of the compressed inverse to ``b``.

        On rank processes the dispatch goes through the resident store
        (tier 1): workers solve from their retained shards and only
        ``(entry id, leaf ownership, rhs)`` crosses the process
        boundary; rank threads are handed the shards directly. The
        communication pattern inside the solve is identical either way,
        so results and per-rank counters are the same on both backends.
        """
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        handle = self._resident_handle()
        if handle is not None:
            run = handle.solve(self.n, b, cost_model=self.cost_model)
        else:
            run = run_spmd(
                self.p,
                solve_worker,
                self.workers,
                self.n,
                b,
                cost_model=self.cost_model,
                backend=self.backend,
            )
        self.last_solve_run = run
        return run.results[0]

    def _resident_handle(self):
        """This factorization's resident handle, built lazily.

        An attached/unpickled factorization (store tiers 2/3) arrives
        without one; its first solve in this process creates the handle
        unseeded, and the handle ships the tree to the pool once.
        """
        if self.resident is None and resident_supported(self.backend):
            self.resident = ResidentHandle(
                new_entry_id(), self.p, self.backend, self.workers
            )
        return self.resident

    __call__ = solve

    def eliminated_count(self) -> int:
        return int(
            sum(rec.redundant.size for w in self.workers for rec in w.records)
        )

    @property
    def stats(self) -> RankStats:
        """Skeleton-rank statistics of every rank's records, in rank
        order (Fig. 9 data); read once, they are immutable."""
        if self._stats is None:
            self._stats = RankStats.of(rec for w in self.workers for rec in w.records)
        return self._stats

    def memory_bytes(self) -> int:
        """Bytes of every rank's records; walked once, they are immutable."""
        if self._memory_bytes is None:
            self._memory_bytes = sum(
                rec.memory_bytes() for w in self.workers for rec in w.records
            )
        return self._memory_bytes


def parallel_srs_factor(
    kernel: KernelMatrix,
    p: int,
    opts: SRSOptions | None = None,
    *,
    nlevels: int | None = None,
    domain: Square | None = None,
    cost_model: CostModel | None = None,
    backend: object = None,
) -> ParallelFactorization:
    """Distributed-memory RS-S factorization on ``p`` simulated ranks.

    ``p`` must be a power-of-two squared (1, 4, 16, 64, ...) and satisfy
    ``p <= 4**(nlevels - 1)`` so every rank owns at least a 2x2 block of
    leaf boxes. ``backend`` selects how ranks execute ("thread",
    "process", or an :class:`~repro.vmpi.backend.ExecutionBackend`);
    ``None`` uses the ``REPRO_VMPI_BACKEND`` default. The spec is
    resolved to an instance here and pinned on the returned
    factorization, so later ``solve`` calls run on the same backend —
    for rank processes, on the same pool of workers. Results, message
    counts, and byte counts are backend-independent. On
    ``backend="process"`` the kernel travels to the workers by pickling:
    one built on a lambda or closure raises
    :class:`~repro.vmpi.pool.DispatchEncodeError` before anything runs.
    """
    backend = resolve_backend(backend)
    opts = opts or SRSOptions()
    domain = domain or Square()
    if nlevels is None:
        nlevels = QuadTree.for_leaf_size(kernel.points, opts.leaf_size, domain=domain).nlevels
        # ensure every rank owns at least 2x2 leaves
        g = int(round(math.log(max(p, 1), 4)))
        nlevels = max(nlevels, g + 1)
    if p > max_ranks_for_tree(nlevels):
        raise ValueError(
            f"p={p} too large for nlevels={nlevels}: need p <= {max_ranks_for_tree(nlevels)}"
        )
    LevelLayout(nlevels, p)  # rejects a p that is not a power-of-two squared

    # kernels with locally corrected quadrature (repro.bie) constrain the
    # leaf size; validate against the tree geometry the workers will use,
    # exactly as the sequential srs_factor does
    kernel.check_tree_resolution(QuadTree(np.zeros((0, 2)), nlevels, domain=domain))

    # factor through the retaining entry point when the backend can host
    # worker-resident shards: each rank keeps its WorkerResult as a side
    # effect of the factor job (no extra communication, no extra job),
    # so the first solve needs no seeding dispatch
    use_resident = resident_supported(backend)
    entry_id = new_entry_id() if use_resident else None
    run = run_spmd(
        p,
        factor_retain_worker if use_resident else factor_worker,
        kernel,
        nlevels,
        domain,
        opts,
        *(() if entry_id is None else (entry_id,)),
        cost_model=cost_model,
        backend=backend,
    )
    workers: list[WorkerResult] = run.results
    fact = ParallelFactorization(
        p=p,
        n=kernel.n,
        nlevels=nlevels,
        opts=opts,
        workers=workers,
        # the per-rank reports behind t_fact and the counters; the
        # results are ``workers`` and are not kept twice
        factor_run=SPMDRun([], run.reports),
        cost_model=cost_model,
        backend=backend,
    )
    if use_resident:
        handle = ResidentHandle(entry_id, p, backend, workers)
        handle.adopt_pool(backend.pool)  # that cohort retained the shards
        fact.resident = handle
    eliminated = fact.eliminated_count()
    if eliminated != kernel.n:  # pragma: no cover - invariant
        raise RuntimeError(f"eliminated {eliminated} of {kernel.n} indices")
    health.record_stats(fact.stats)  # once, here: rank processes cannot report
    return fact
