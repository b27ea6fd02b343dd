"""Shared-memory (box-coloring) comparator solver — Table VI / Fig. 10.

The paper compares its distributed solver against a C++/OpenMP
shared-memory RS-S that follows Takahashi et al.: *all boxes* at a
level are colored so adjacent boxes differ, and each color class is
executed as a parallel task batch. We reproduce that *strategy* over
the same sequential core: the factorization runs once, each box task's
CPU time is measured, and the task batches are list-scheduled (LPT)
onto ``nthreads`` simulated threads under the same cost model used by
the distributed solver — so the two strategies are compared apples to
apples, as in the paper.

Box coloring: parity color ``(ix % 2) + 2 * (iy % 2)``; same-color
boxes are >= 2 apart so their skeletonizations touch disjoint data (the
shared-memory runtime synchronizes between color batches with a
barrier, modeled by ``sync_overhead``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.factorization import SRSFactorization, srs_factor
from repro.core.interactions import Coord
from repro.core.options import SRSOptions
from repro.core.skel import sweep_down, sweep_up
from repro.kernels.base import KernelMatrix
from repro.tree.quadtree import QuadTree

#: one measured task: ``(level, box, seconds)``
TaskTime = tuple[int, Coord, float]


def box_color(box: Coord) -> int:
    return (box[0] % 2) + 2 * (box[1] % 2)


def lpt_makespan(durations: list[float], nthreads: int) -> float:
    """Longest-processing-time list-scheduling makespan on ``nthreads``."""
    if not durations:
        return 0.0
    if nthreads <= 1:
        return float(sum(durations))
    loads = np.zeros(nthreads)
    for d in sorted(durations, reverse=True):
        loads[np.argmin(loads)] += d
    return float(loads.max())


def _schedule(
    times: list[TaskTime], nthreads: int, sync_overhead: float
) -> list[tuple[int, float]]:
    """Simulated time per level (finest first): every color batch is
    LPT-scheduled onto the threads and ends in a barrier."""
    batches: dict[tuple[int, int], list[float]] = {}
    for level, box, seconds in times:
        batches.setdefault((level, box_color(box)), []).append(seconds)
    per_level: dict[int, float] = {}
    for (level, _color), durations in batches.items():
        per_level[level] = (
            per_level.get(level, 0.0) + lpt_makespan(durations, nthreads) + sync_overhead
        )
    return sorted(per_level.items(), reverse=True)


@dataclass
class SharedMemoryResult:
    """Outcome of the shared-memory comparator.

    ``factorization`` is the strict sequential factorization, bit for
    bit; ``t_fact``/``t_solve`` are the simulated thread-schedule times
    Table VI sets against the distributed solver's.

    The measured durations are kept, and the simulated times are a
    function of them and ``nthreads`` alone: :meth:`schedule` puts the
    *same* measurement on another thread count without factoring again.
    """

    factorization: SRSFactorization
    nthreads: int
    #: measured per-box skeletonization times
    task_times: list[TaskTime]
    #: measured per-record apply times (upward plus downward pass)
    apply_times: list[TaskTime]
    sequential_t_fact: float
    sequential_t_solve: float
    sync_overhead: float = 5.0e-6
    t_fact: float = field(init=False)
    t_solve: float = field(init=False)
    per_level: list[tuple[int, float]] = field(init=False)

    def __post_init__(self) -> None:
        if self.nthreads < 1:
            raise ValueError(f"nthreads must be >= 1, got {self.nthreads}")
        self.per_level = _schedule(self.task_times, self.nthreads, self.sync_overhead)
        self.t_fact = sum(t for _lvl, t in self.per_level)
        self.t_solve = sum(
            t for _lvl, t in _schedule(self.apply_times, self.nthreads, self.sync_overhead)
        )

    def schedule(self, nthreads: int) -> "SharedMemoryResult":
        """The same measured durations scheduled onto ``nthreads`` threads."""
        return replace(self, nthreads=nthreads)

    @property
    def speedup(self) -> float:
        return self.sequential_t_fact / self.t_fact if self.t_fact else 1.0


def shared_memory_factor(
    kernel: KernelMatrix,
    nthreads: int,
    opts: SRSOptions | None = None,
    *,
    tree: QuadTree | None = None,
) -> SharedMemoryResult:
    """Factor with the box-coloring shared-memory strategy.

    Returns the (numerically identical) factorization plus the
    simulated ``t_fact``/``t_solve`` on ``nthreads`` threads. The
    strategy schedules *per-box* tasks, so the factorization runs the
    strict sweep whatever ``opts.factor_mode`` says — pinned here, in
    the comparator's own options.
    """
    if nthreads < 1:  # before the measurement, not after it
        raise ValueError(f"nthreads must be >= 1, got {nthreads}")
    opts = replace(opts or SRSOptions(), factor_mode="strict")
    if tree is None:
        tree = QuadTree.for_leaf_size(kernel.points, opts.leaf_size)

    task_times: list[TaskTime] = []
    t0 = time.perf_counter()
    fact = srs_factor(kernel, tree, opts, task_times=task_times)
    t_fact = time.perf_counter() - t0

    # --- solve: measure per-record apply times -------------------------
    rng = np.random.default_rng(0)
    x = rng.standard_normal(kernel.n).astype(np.result_type(kernel.dtype, float))
    upward: list[float] = []
    apply_times: list[TaskTime] = []
    t_start = time.perf_counter()
    for rec in fact.records:
        t0 = time.perf_counter()
        sweep_up([rec], x)
        upward.append(time.perf_counter() - t0)
    for rec, up in zip(reversed(fact.records), reversed(upward)):
        t0 = time.perf_counter()
        sweep_down([rec], x)
        apply_times.append((rec.level, rec.box, up + time.perf_counter() - t0))
    t_solve = time.perf_counter() - t_start

    return SharedMemoryResult(
        factorization=fact,
        nthreads=nthreads,
        task_times=task_times,
        apply_times=apply_times,
        sequential_t_fact=t_fact,
        sequential_t_solve=t_solve,
    )
