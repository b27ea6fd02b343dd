"""Stacked compression for the level sweep: a box group as tensor ops.

Skeletonizing a box has three stages: gather the compression matrix,
run the column ID, eliminate. This module is the compress stage — the
first two — of both schedules of
:func:`repro.core.factorization.sweep_level`. The strict schedule
passes one box at a time; the batched one passes a colour phase, which
runs the stages across boxes:

1. **Color** (:func:`color_phases`) — partition the boxes into the nine
   ``(x mod 3, y mod 3)`` classes. Two boxes of one class are Chebyshev
   distance >= 3 apart, so eliminating one cannot touch anything the
   other's compression reads: Schur deltas land only on pairs whose
   endpoints are within distance 1 of the eliminated box, and a
   compression reads pairs involving the box itself (distance <= 2
   away) plus the active sets of its ``M(B)`` ring — all out of reach
   (``tests/test_interactions.py`` checks the commutation directly).
   The distributed rank-colour loop (Sec. III-B) rests on the same
   argument and drives the same sweep, one call per phase of its own.
2. **Plan** (:func:`compress_phase`) — snapshot every box's active set,
   ``M(B)`` ring and proxy circle, and group boxes whose compression
   matrices have identical shape: the signature is (active size, proxy
   count, the ordered tuple of ``M(B)`` active sizes).
3. **Assemble** — allocate one ``(nbox, m, k)`` stack per group and
   fill it with a handful of *stacked* kernel evaluations
   (:meth:`~repro.kernels.base.KernelMatrix.block_stack` /
   ``proxy_*_block_stack``), grouped by block shape across the whole
   phase. Blocks already modified by Schur updates are copied from the
   store instead. A box's matrix is the four panels
   ``[A[M, B]; A[B, M]^*; K[P, B]; K[B, P]^*]``, or for a ``symmetric``
   or ``hermitian`` kernel the half-height ``[A[M, B]; s K[B, P]^*]``
   with the same column Gram matrix up to a factor 2 (hence the same
   CPQR), see :attr:`~repro.kernels.base.KernelMatrix.hermitian`. A
   symmetric kernel that is not hermitian (complex-symmetric Helmholtz)
   is compressed by the real ``[Re; Im]`` stack of that matrix, so its
   ID runs in real arithmetic and its ``T`` is real.
4. **Grouped ID** — one :func:`~repro.linalg.interpolative.interp_decomp_stack`
   call per group (one shared CPQR workspace).
5. **Prefill** — the near-field pairs the phase's eliminations will
   read are evaluated stacked as well.

The sweep then eliminates the group's boxes *one at a time, in todo
order*, through :func:`~repro.core.skel.eliminate_box` (sparsification
GEMMs, partial LU, BLAS-3 Schur delta), so the ``InteractionStore``
update contract and the ``update_log`` replication stream for
distributed workers are one protocol under both schedules.

Batching reorders *assembly and compression*, not elimination: every
box still sees exactly the store state a strict per-box sweep over the
color-reordered todo would show it, and elimination itself stays
sequential and exact. Reordering a level's eliminations is already part
of the algorithm's contract (the distributed sweep factors interior
boxes before boundary boxes), so batched agrees with strict to the ID
tolerance — the two orders compress identical operators, picking
skeletons that may differ within tolerance. The compress stage itself
does not depend on the schedule: a box gets the same bits alone or in
its phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.interactions import Coord, InteractionStore, PairKey
from repro.core.options import SRSOptions
from repro.core.proxy import proxy_circle_stack, proxy_point_count
from repro.kernels.base import KernelMatrix
from repro.linalg.interpolative import InterpolativeDecomposition, interp_decomp_stack
from repro.obs import COUNT_BUCKETS, REGISTRY, trace
from repro.tree.quadtree import QuadTree

_BATCH_OCCUPANCY = REGISTRY.histogram(
    "repro_factor_batch_occupancy",
    "Boxes per batched compression group",
    buckets=COUNT_BUCKETS,
)

#: most boxes per ID group — bounds the transient ``(nbox, m, k)``
#: stack to a few tens of MB at paper-scale leaf levels
BATCH_MAX = 64

#: most output elements per stacked kernel evaluation — bounds the
#: broadcast intermediates (distance matrices) of one ``block_stack``
EVAL_CHUNK_ELEMENTS = 1 << 22


@dataclass
class _BoxPlan:
    """Phase-start snapshot of everything one box's compression needs."""

    box: Coord
    bidx: np.ndarray
    m_boxes: list[Coord]
    m_sizes: list[int]
    proxy: np.ndarray | None = None
    dec: InterpolativeDecomposition | None = None


def color_phases(boxes: list[Coord]) -> list[list[Coord]]:
    """Partition ``boxes`` into the nine mod-3 color classes.

    Phases are ordered by color key ``(x mod 3, y mod 3)``; within a
    phase the todo order is preserved. Boxes of one class are pairwise
    Chebyshev distance >= 3 apart, which makes each phase's batched
    assembly exact (see the module docstring).
    """
    classes: dict[tuple[int, int], list[Coord]] = {}
    for box in boxes:
        classes.setdefault((box[0] % 3, box[1] % 3), []).append(box)
    return [classes[key] for key in sorted(classes)]


def compress_phase(
    store: InteractionStore,
    kernel: KernelMatrix,
    tree: QuadTree,
    level: int,
    boxes: list[Coord],
    opts: SRSOptions,
) -> dict[Coord, InterpolativeDecomposition]:
    """Compress ``boxes`` (all live) in stacked groups.

    ``boxes`` is one group of the sweep's schedule: a colour phase, or a
    single box under strict. Returns each box's decomposition — what a
    per-box compression against the group-start store would yield — and
    leaves the near-field pairs the group's eliminations read
    materialized in the store.
    """
    has_far_field = tree.nside(level) >= 4
    plans: list[_BoxPlan] = []
    for box in boxes:
        m_boxes = [
            mb
            for mb in (tree.dist2_neighbors(level, *box) if has_far_field else [])
            if mb in store.active and store.nactive(mb) > 0
        ]
        plans.append(
            _BoxPlan(
                box=box,
                bidx=store.active_of(box),
                m_boxes=m_boxes,
                m_sizes=[store.nactive(mb) for mb in m_boxes],
            )
        )

    if has_far_field:
        radius = opts.proxy_radius_factor * tree.box_side(level)
        n_proxy = proxy_point_count(kernel, radius, opts)
        centers = np.stack([tree.box_center(level, *p.box) for p in plans])
        circles = proxy_circle_stack(centers, radius, n_proxy)
        for i, plan in enumerate(plans):
            plan.proxy = circles[i]

    _assemble_and_compress(store, kernel, level, plans, opts)
    _prefill_near(store, tree, level, boxes)
    return {plan.box: plan.dec for plan in plans}


def _assemble_and_compress(
    store: InteractionStore,
    kernel: KernelMatrix,
    level: int,
    plans: list[_BoxPlan],
    opts: SRSOptions,
) -> None:
    """Stages 3–4: fill the group stacks, run the grouped IDs."""
    groups: dict[tuple, list[_BoxPlan]] = {}
    for plan in plans:
        p = 0 if plan.proxy is None else plan.proxy.shape[0]
        key = (plan.bidx.size, p, tuple(plan.m_sizes))
        groups.setdefault(key, []).append(plan)

    # A symmetric kernel's box is compressed by [A[M, B]; s K[B, P]^*]:
    # A[B, M]^* repeats A[M, B] (conjugated if A is complex symmetric;
    # Schur deltas inherit either symmetry) and K[P, B] = alpha K[B, P]^T,
    # so s^2 = (1 + alpha^2) / 2 makes the real part of its Gram matrix
    # half the four panels' one, which is real for a hermitian kernel
    # and, at alpha = 1 (Helmholtz), for a complex-symmetric one, whose
    # real [Re; Im] stack has that real part as its Gram matrix. Either
    # way CPQR picks the four panels' pivots and T, and the stack's T is
    # real.
    sym = kernel.symmetric or kernel.hermitian
    split = sym and not kernel.hermitian
    proxy_scale = np.sqrt((1.0 + kernel.weight_ratio**2) / 2.0) if sym else None
    #: unmodified pair -> (destination rows, stored conjugate-transposed?)
    block_dests: dict[PairKey, tuple[np.ndarray, bool]] = {}
    proxy_reqs: dict[tuple[int, int], list] = {}
    stacks: list[tuple[np.ndarray, list[_BoxPlan]]] = []
    for (k, p, m_sizes), members in groups.items():
        m_total = (1 if sym else 2) * (sum(m_sizes) + p)
        for i0 in range(0, len(members), BATCH_MAX):
            chunk = members[i0 : i0 + BATCH_MAX]
            comp = np.empty((len(chunk), m_total, k), dtype=kernel.dtype)
            stacks.append((comp, chunk))
            for slot, plan in enumerate(chunk):
                r0 = 0
                for mb, msize in zip(plan.m_boxes, plan.m_sizes):
                    if store.is_modified(mb, plan.box):
                        comp[slot, r0 : r0 + msize, :] = store.get(mb, plan.box)
                    else:
                        block_dests[mb, plan.box] = (
                            comp[slot, r0 : r0 + msize, :], False
                        )
                    r0 += msize
                    if sym:
                        continue
                    if store.is_modified(plan.box, mb):
                        comp[slot, r0 : r0 + msize, :] = (
                            store.get(plan.box, mb).conj().T
                        )
                    else:
                        block_dests[plan.box, mb] = (
                            comp[slot, r0 : r0 + msize, :], True
                        )
                    r0 += msize
                if p:
                    proxy_reqs.setdefault((p, k), []).append(
                        (plan.proxy, plan.bidx, comp[slot, r0:, :])
                    )

    for key, blk in _eval_pairs(store, block_dests):
        dest, conj_t = block_dests[key]
        dest[...] = blk.conj().T if conj_t else blk
    _flush_proxy_requests(kernel, proxy_reqs, proxy_scale)

    for comp, chunk in stacks:
        if split:
            comp = np.concatenate((comp.real, comp.imag), axis=1)
        with trace.span(
            "factor.batch",
            level=level,
            boxes=len(chunk),
            rows=int(comp.shape[1]),
            cols=int(comp.shape[2]),
        ):
            _BATCH_OCCUPANCY.observe(len(chunk))
            decs = interp_decomp_stack(comp, opts.tol)
        for plan, dec in zip(chunk, decs):
            # records keep T in the kernel dtype, whatever the ID ran on
            dec.T = dec.T.astype(kernel.dtype, copy=False)
            plan.dec = dec


def _prefill_near(
    store: InteractionStore, tree: QuadTree, level: int, boxes: list[Coord]
) -> None:
    """Materialize the near-field blocks this phase's eliminations read.

    Elimination of a phase box touches every pair among ``{B} u N(B)``;
    the unmodified ones would otherwise be evaluated one scalar
    ``kernel.block`` call at a time inside ``get``/``get_writable``.
    Same-phase boxes cannot touch each other's near pairs (module
    docstring), so evaluating them all here — stacked, grouped by shape
    — stores exactly the values the lazy path would have produced.
    Only stored orientations are asked for (one per pair of a symmetric
    store), and pairs a ``store_predicate`` rejects are left alone:
    this rank does not hold them.
    """
    pred = store.store_predicate
    wanted: dict[PairKey, None] = {}
    for box in boxes:
        members = [box] + [
            n
            for n in tree.neighbors(level, *box)
            if n in store.active and store.nactive(n) > 0
        ]
        for bi in members:
            for bj in members:
                key = store.stored_key(bi, bj)
                if store.is_modified(*key) or (pred is not None and not pred(*key)):
                    continue
                wanted[key] = None
    with trace.span("factor.prefill", level=level, pairs=len(wanted)):
        for (bi, bj), blk in _eval_pairs(store, wanted):
            # contiguous copy: stored blocks are mutated in place by Schur
            # updates and must not alias the eval stack
            store.set(bi, bj, np.ascontiguousarray(blk))


def batch_pair_blocks(
    store: InteractionStore, pairs: Iterable[PairKey]
) -> dict[PairKey, np.ndarray]:
    """Evaluate many store pairs at once, preserving ``store.get`` values.

    Modified pairs come straight from the store; unmodified ones are
    pure kernel blocks and get stacked, shape-grouped evaluations. Used
    by the parent assembly, whose reassembly otherwise walks
    child pairs one scalar ``kernel.block`` at a time. Returned blocks
    may be store-owned or stack views — callers copy
    (``hstack``/``vstack``) and must not mutate them.
    """
    out: dict[PairKey, np.ndarray] = {}
    wanted: dict[PairKey, None] = {}
    for key in pairs:
        if store.is_modified(*key):
            out[key] = store.get(*key)
        else:
            wanted[key] = None
    out.update(_eval_pairs(store, wanted))
    return out


def _eval_pairs(
    store: InteractionStore, pairs: dict[PairKey, object]
) -> Iterator[tuple[PairKey, np.ndarray]]:
    """Evaluate unmodified store ``pairs`` in same-shape stacks.

    The one stacked-evaluation loop of the batched path: pairs are
    grouped by block shape (first-seen order), each group is cut into
    chunks of at most ``EVAL_CHUNK_ELEMENTS`` outputs, and every chunk
    is one :meth:`~repro.kernels.base.KernelMatrix.block_stack` call.
    For ``symmetric`` kernels a pair whose reverse is also asked for is
    evaluated once — the first direction met — and the transpose
    serves the other: by the kernel's declaration it equals a direct
    evaluation bit for bit. Yields ``(key, block)``; blocks are views
    into the evaluation stack, so consumers copy what they keep.
    """
    kernel = store.kernel
    share = kernel.symmetric
    groups: dict[tuple[int, int], list[PairKey]] = {}
    queued: set[PairKey] = set()
    for key in pairs:
        bi, bj = key
        if share and (bj, bi) in queued:
            continue  # emitted below as the transpose of (bj, bi)
        queued.add(key)
        groups.setdefault((store.nactive(bi), store.nactive(bj)), []).append(key)
    for (r, c), keys in groups.items():
        step = max(1, EVAL_CHUNK_ELEMENTS // max(1, r * c))
        for i0 in range(0, len(keys), step):
            part = keys[i0 : i0 + step]
            rows_stack = np.stack([store.active_of(bi) for bi, _ in part])
            cols_stack = np.stack([store.active_of(bj) for _, bj in part])
            blks = kernel.block_stack(rows_stack, cols_stack)
            for (bi, bj), blk in zip(part, blks):
                yield (bi, bj), blk
                if (bj, bi) in pairs and (bj, bi) not in queued:
                    yield (bj, bi), blk.T


def _flush_proxy_requests(
    kernel: KernelMatrix, reqs: dict[tuple[int, int], list], scale: float | None
) -> None:
    """Evaluate queued proxy panels in same-shape stacks.

    Each request's destination takes ``[K[P, B]; K[B, P]^*]``, or only
    ``scale * K[B, P]^*`` when ``scale`` is given (a symmetric kernel).
    """
    for (p, k), entries in reqs.items():
        step = max(1, EVAL_CHUNK_ELEMENTS // max(1, p * k))
        for i0 in range(0, len(entries), step):
            part = entries[i0 : i0 + step]
            proxy_stack = np.stack([e[0] for e in part])
            cols_stack = np.stack([e[1] for e in part])
            col_blks = kernel.proxy_col_block_stack(cols_stack, proxy_stack)
            if scale is None:
                row_blks = kernel.proxy_row_block_stack(proxy_stack, cols_stack)
                for (_, _, dest), rb, cb in zip(part, row_blks, col_blks):
                    dest[:p] = rb
                    dest[p:] = cb.conj().T
            else:
                for (_, _, dest), cb in zip(part, col_blks):
                    np.multiply(cb.conj().T, scale, out=dest)
