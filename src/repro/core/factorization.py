"""Multilevel RS-S factorization (Algorithm 1) and the factored solver.

``srs_factor`` sweeps the quadtree bottom-up. At each level every box
is skeletonized (compression + partial elimination); between levels the
surviving skeletons are regrouped under their parents and the modified
near-field blocks are re-assembled on parent pairs (Sec. II-E). The
result is a sequence of :class:`~repro.core.skel.BoxRecord`, which is
an implicit factorization ``A ~= V_1^{-1} ... V_K^{-1} W_K^{-1} ... W_1^{-1}``
whose inverse applies in O(N) (Sec. II-F).

What happens *inside* a level exists once, here — :func:`sweep_level`
and :func:`assemble_parents` — behind two outer drivers: ``srs_factor``
(sequential) and :func:`repro.parallel.worker.factor_worker` (Sec. III).
Every box is compressed by :func:`repro.core.batch.compress_phase` and
eliminated by :func:`repro.core.skel.eliminate_box`; the factor modes
differ only in how :func:`sweep_level` groups a level's boxes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import batch_pair_blocks, color_phases, compress_phase
from repro.core.interactions import Coord, InteractionStore, PairKey
from repro.core.options import SRSOptions
from repro.core.skel import (
    BoxRecord, eliminate_box, sweep_down, sweep_up, sweep_view, unsweep_down, unsweep_up,
)
from repro.core.stats import RankStats
from repro.kernels.base import KernelMatrix
from repro.obs import health, trace
from repro.tree.quadtree import QuadTree


@dataclass
class SRSFactorization:
    """The computed factorization: an O(N)-applicable compressed inverse."""

    records: list[BoxRecord]
    n: int
    dtype: np.dtype
    opts: SRSOptions
    _stats: RankStats | None = field(default=None, repr=False, compare=False)
    _memory_bytes: int | None = field(default=None, repr=False, compare=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply the compressed inverse: ``x ~= A^{-1} b``.

        ``b`` may be a vector ``(N,)`` or a block of right-hand sides
        ``(N, nrhs)`` — the multiple-RHS use case the direct solver is
        built for (Sec. I-A).
        """
        x, xs = self._working_copy(b, "rhs")
        sweep_up(self.records, xs)
        sweep_down(self.records, xs)
        return x

    __call__ = solve

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Forward-apply the *compressed* operator: ``y ~= A x``.

        The factorization stores ``A ~= V_1^{-1} .. V_K^{-1} W_K^{-1} .. W_1^{-1}``,
        so the forward product applies the exact inverses of the solve
        sweeps in opposite order. Agreement with the problem's own
        ``operator()`` (FFT on grids, the assembled matrix on curves)
        to roughly the ID tolerance is a cheap end-to-end sanity check
        of a factorization; it is *not* a fast general-purpose matvec.

        Accepts ``(N,)`` vectors or ``(N, nrhs)`` blocks, promoting the
        dtype like :meth:`solve` (complex RHS on a real factorization
        stays complex).
        """
        y, ys = self._working_copy(x, "operand")
        unsweep_down(self.records, ys)
        unsweep_up(self.records, ys)
        return y

    def _working_copy(self, b: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
        """A promoted copy of ``b`` for the in-place sweeps, and its sweep view."""
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError(f"{what} has {b.shape[0]} rows, expected {self.n}")
        mixed = b.dtype.kind == "c" and np.dtype(self.dtype).kind != "c"
        # the real view of a mixed operand needs C order; else keep the caller's
        x = b.astype(np.result_type(self.dtype, b.dtype), order="C" if mixed else "K")
        return x, sweep_view(x, self.dtype)

    def eliminated_count(self) -> int:
        """Total number of redundant indices (must equal ``n``)."""
        return int(sum(rec.redundant.size for rec in self.records))

    def memory_bytes(self) -> int:
        """Bytes of all records; walked once, they are immutable after the build."""
        if self._memory_bytes is None:
            self._memory_bytes = sum(rec.memory_bytes() for rec in self.records)
        return self._memory_bytes

    @property
    def stats(self) -> RankStats:
        """Per-level skeleton ranks (Fig. 9 data), read once off the records."""
        if self._stats is None:
            self._stats = RankStats.of(self.records)
        return self._stats


def srs_factor(
    kernel: KernelMatrix,
    tree: QuadTree | None = None,
    opts: SRSOptions | None = None,
    *,
    task_times: list | None = None,
) -> SRSFactorization:
    """Factorize the kernel matrix (Algorithm 1).

    Parameters
    ----------
    kernel:
        The dense system matrix, defined implicitly over its points.
    tree:
        Quadtree over the same points; built from ``opts.leaf_size``
        when omitted.
    opts:
        Compression/proxy options.
    task_times:
        When a list, collects ``(level, box, seconds)`` per
        skeletonization (see :func:`sweep_level`); requires
        ``opts`` to resolve to the strict sweep.
    """
    opts = opts or SRSOptions()
    if tree is None:
        tree = QuadTree.for_leaf_size(kernel.points, opts.leaf_size)
    if tree.N != kernel.n:
        raise ValueError("tree and kernel must be over the same point set")
    kernel.check_tree_resolution(tree)

    fact = SRSFactorization([], kernel.n, kernel.dtype, opts)
    active: dict[Coord, np.ndarray] = {
        c: tree.leaf_points(*c) for c in tree.nonempty_leaves()
    }
    seed_blocks: dict[PairKey, np.ndarray] | None = None

    with trace.span("factor", n=kernel.n, levels=tree.nlevels):
        for level in range(tree.nlevels, 0, -1):
            store = InteractionStore(kernel, active, blocks=seed_blocks)
            boxes = tree.boxes(level)
            with trace.span("factor.level", level=level, boxes=len(boxes)) as lspan:
                factored = sweep_level(
                    store, kernel, tree, level, boxes, opts, fact.records,
                    task_times=task_times,
                )
                lspan.set(factored=factored)
            if level > 1:
                with trace.span("factor.transition", level=level):
                    active, seed_blocks = assemble_parents(store, tree, level)
            else:
                remaining = sum(v.size for v in store.active.values())
                if remaining:  # pragma: no cover - indicates an algorithmic bug
                    raise RuntimeError(f"{remaining} indices survived the root level")

    if fact.eliminated_count() != kernel.n:  # pragma: no cover - invariant
        raise RuntimeError(
            f"eliminated {fact.eliminated_count()} of {kernel.n} indices"
        )
    health.record_stats(fact.stats)
    return fact


def sweep_level(
    store: InteractionStore,
    kernel: KernelMatrix,
    tree: QuadTree,
    level: int,
    boxes: list[Coord],
    opts: SRSOptions,
    records: list[BoxRecord],
    *,
    update_log: list | None = None,
    task_times: list | None = None,
) -> int:
    """Skeletonize ``boxes`` at ``level``: the one per-level loop.

    The level runs as an ordered *schedule* of box groups; per group the
    live boxes are compressed together against the group-start store
    (:func:`~repro.core.batch.compress_phase`), then eliminated one at a
    time in todo order, each record appended to ``records``.
    ``opts.factor_mode`` picks the schedule:

    * ``strict`` — singletons in todo order;
    * ``batched`` — the nine mod-3 colour phases, which the distance-3
      independence argument makes exact.

    Everything else is the same under both. Returns the number of boxes
    factored.

    ``task_times`` (when a list) collects ``(level, box, seconds)`` per
    skeletonization (compression plus elimination) — the shared-memory
    comparator schedules these measured task durations onto simulated
    threads (Table VI). A per-box duration is defined for the singleton
    schedule only, so asking for one with batched ``opts`` raises
    ``ValueError``.
    """
    batched = opts.factor_mode == "batched"
    if batched and task_times is not None:
        raise ValueError(
            "task_times needs factor_mode='strict': the batched sweep "
            "compresses a colour phase at once, so there is no per-box duration"
        )
    before = len(records)
    for group in color_phases(boxes) if batched else ([box] for box in boxes):
        live = [b for b in group if b in store.active and store.nactive(b) > 0]
        if not live:
            continue
        t0 = time.perf_counter()
        decs = compress_phase(store, kernel, tree, level, live, opts)
        for box in live:
            with trace.span(
                "factor.skeletonize", level=level, box=str(box), size=store.nactive(box)
            ):
                rec = eliminate_box(
                    store, box, tree.neighbors(level, *box), decs[box],
                    level=level, update_log=update_log,
                )
            records.append(rec)
        if task_times is not None:  # strict: ``live`` is the one box
            task_times.append((level, live[0], time.perf_counter() - t0))
    return len(records) - before


def assemble_parents(
    store: InteractionStore,
    tree: QuadTree,
    level: int,
    own: list[Coord] | None = None,
) -> tuple[dict[Coord, np.ndarray], dict[PairKey, np.ndarray]]:
    """Regroup skeletons under parents and reassemble near-field blocks.

    Returns the parent level's ``(active, blocks)``. With ``own=None``
    every parent with surviving children is regrouped and every parent
    pair at Chebyshev distance <= 1 assembled. A distributed rank passes
    the parents it owns: only those are regrouped, and each pair of an
    owned parent and a near one is assembled in both key orders (a rank
    holds a pair when it owns either side). Keys follow the store's
    orientation rule (:meth:`~repro.core.interactions.InteractionStore.stored_key`),
    so for a symmetric store both orders are one block.

    Only parent pairs at distance <= 1 can contain modified child
    blocks (child pairs at distance <= 2 have parents at distance
    <= 1); distance-2 parent pairs assemble from child pairs at
    distance >= 3, which Theorem 2 guarantees are pure kernel — they
    are left to lazy kernel evaluation at the parent level.

    The unmodified child pairs are evaluated through the stacked kernel
    API (:func:`repro.core.batch.batch_pair_blocks`), whatever the
    sweep's schedule.
    """
    parent_level = level - 1
    both_orders = own is not None
    if own is None:
        own = list(
            dict.fromkeys(
                (box[0] >> 1, box[1] >> 1)
                for box, idx in store.active.items()
                if idx.size
            )
        )

    live_children: dict[Coord, list[Coord]] = {}

    def children_of(parent: Coord) -> list[Coord]:
        if parent not in live_children:
            live_children[parent] = [
                c
                for c in tree.children(parent_level, *parent)
                if c in store.active and store.nactive(c) > 0
            ]
        return live_children[parent]

    pairs: dict[PairKey, None] = {}
    for p1 in own:
        if not children_of(p1):
            continue
        for p2 in tree.near_and_self(parent_level, *p1):
            if children_of(p2):
                pairs[store.stored_key(p1, p2)] = None
                if both_orders:
                    pairs[store.stored_key(p2, p1)] = None

    child_blocks = batch_pair_blocks(
        store,
        [
            (c1, c2)
            for p1, p2 in pairs
            for c1 in live_children[p1]
            for c2 in live_children[p2]
        ],
    )
    blocks = {
        (p1, p2): np.vstack(
            [
                np.hstack([child_blocks[c1, c2] for c2 in live_children[p2]])
                for c1 in live_children[p1]
            ]
        )
        for p1, p2 in pairs
    }
    active = {
        parent: np.concatenate([store.active_of(c) for c in live_children[parent]])
        for parent in own
        if live_children[parent]
    }
    return active, blocks
