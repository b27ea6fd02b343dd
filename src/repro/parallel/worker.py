"""The distributed factorization worker (Algorithm 2 of the paper).

Every rank executes :func:`factor_worker`. Per tree level:

1. **Interior phase** — factor boxes whose neighbors are all local;
   zero communication (Sec. III-A).
2. **Interior-restriction exchange** — one message per neighbor with
   the skeleton positions of interior boxes inside the neighbor's
   distance-2 halo (neighbors hold read-only replicas of blocks
   touching those boxes and must shrink them consistently).
3. **Color loop** (Sec. III-B) — ranks of the current color factor
   their boundary boxes, then send each neighbor the relevant store
   mutations: ``restrict`` entries for boxes in the neighbor's halo and
   additive Schur ``delta`` entries, in stored orientation (one per
   unordered pair for a symmetric kernel), for block pairs the neighbor
   owns a side of. Receivers replay the log in order.
4. **Transition** (Sec. III-C) — 4-to-1 rank reduction once regions are
   down to one parent box (retirees ship their surviving state to the
   sibling-group leader), a halo refresh of skeleton coordinates among
   the surviving ranks, and local re-assembly of parent-level blocks.

This file is the *protocol* — which boxes when, which messages. The
work inside a phase is the sequential solver's
(:func:`~repro.core.factorization.sweep_level` in steps 1 and 3,
:func:`~repro.core.factorization.assemble_parents` in step 4), so with
``p = 1`` the records are bitwise those of ``srs_factor``.

A rank numbers the points it knows in arrival order
(:class:`RankPoints`) and runs that code on a plain ``kernel.spawn``
kernel. Messages carry global ids, mapped on receipt; the map raises
``KeyError``, naming the message, if the protocol ever under-delivers.

A rank keeps only its records (:class:`WorkerResult`): every choice
above is a function of the level's
:class:`~repro.parallel.ownership.LevelLayout` and the box, so the
solve (:mod:`repro.parallel.solve`) replays it from those.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.factorization import assemble_parents, sweep_level
from repro.core.interactions import Coord, InteractionStore, PairKey
from repro.core.options import SRSOptions
from repro.core.skel import BoxRecord
from repro.geometry.domain import Square
from repro.geometry.morton import morton_encode
from repro.kernels.base import KernelMatrix
from repro.obs import trace
from repro.parallel.ownership import LevelLayout
from repro.tree.quadtree import QuadTree
from repro.vmpi.comm import Comm


# message tags: phase * 100000 + level * 16 + color
def _tag(phase: int, level: int, color: int = 0) -> int:
    return phase * 100_000 + level * 16 + color


TAG_HALO = 1  # level-start halo refresh
TAG_INTERIOR = 2  # interior-restriction exchange
TAG_COLOR = 3  # boundary color rounds
TAG_STRIP = 4  # pre-assembly skeleton/coordinate strip
TAG_REDUCE = 5  # 4-to-1 rank reduction


@dataclass
class WorkerResult:
    """Everything a rank keeps after the factorization: its records, plus
    what the solve needs to re-derive their schedule."""

    rank: int
    records: list[BoxRecord]
    leaf_ids: np.ndarray
    dtype: np.dtype
    #: the leaf level; a rank may hold no record at a level it takes part in
    nlevels: int


def factor_worker(
    comm: Comm,
    kernel: KernelMatrix,
    nlevels: int,
    domain: Square,
    opts: SRSOptions,
) -> WorkerResult:
    """SPMD entry point for the distributed factorization."""
    p = comm.size
    geometry = QuadTree(np.zeros((0, 2)), nlevels, domain=domain)

    # ------------------------------------------------------------------
    # setup: rank 0 scatters regions + distance-2 leaf halos
    # ------------------------------------------------------------------
    payloads = scatter_payloads(kernel, nlevels, domain, p) if comm.rank == 0 else None
    payload = comm.scatter(payloads, 0)
    known = RankPoints(kernel.spawn(payload["coords"], payload["per_point"]), payload["ids"])
    active: dict[Coord, np.ndarray] = {
        b: known.local(ids, "the scatter") for b, ids in payload["active"].items()
    }
    own_boxes: list[Coord] = list(payload["own"])
    leaf_ids = payload["ids"][: sum(active[b].size for b in own_boxes)]  # own boxes first

    comm.barrier()
    # exclude setup (point distribution) from t_fact and from the
    # Sec. IV-B communication counters, as the paper does
    comm.clock.local_time = 0.0
    comm.clock.compute_time = 0.0
    comm.clock.comm_time = 0.0
    comm.counters.messages_sent = 0
    comm.counters.bytes_sent = 0
    comm.counters.messages_received = 0
    comm.counters.bytes_received = 0

    records: list[BoxRecord] = []
    seed_blocks: dict[PairKey, np.ndarray] | None = None

    for level in range(nlevels, 0, -1):
        layout = LevelLayout(level, p)
        if not layout.is_active(comm.rank):
            break  # retired at an earlier transition

        nbr_ranks = layout.neighbor_ranks(comm.rank)
        my_color = layout.color(comm.rank)
        colors = layout.colors_in_use()

        # -- level-start halo refresh (width 2, current level units) ----
        # drop the previous level's halo, keep own boxes, then refill it
        if level < nlevels:
            own_set = set(own_boxes)
            for b in [b for b in active if b not in own_set]:
                del active[b]
            _exchange_boxes(
                comm, known, active,
                {w: layout.strip_boxes(comm.rank, w, 2) for w in nbr_ranks},
                _tag(TAG_HALO, level),
            )

        rank = comm.rank
        store = InteractionStore(
            known.kernel,
            active,
            blocks=seed_blocks,
            store_predicate=lambda bi, bj, _l=layout, _r=rank: (
                _l.owner(bi) == _r or _l.owner(bj) == _r
            ),
        )
        active = store.active  # single source of truth from here on

        interior = [b for b in own_boxes if not layout.is_boundary(b, comm.rank)]
        boundary = [b for b in own_boxes if layout.is_boundary(b, comm.rank)]

        # -- phase 1: interior boxes ------------------------------------
        interior_log: list = []
        with trace.span("factor.interior", level=level, boxes=len(interior)):
            with comm.clock.compute():
                sweep_level(
                    store, known.kernel, geometry, level, interior, opts, records,
                    update_log=interior_log,
                )

        # -- phase 1.5: interior-restriction exchange --------------------
        with trace.span("factor.exchange", level=level):
            restricts = [op for op in interior_log if op[0] == "restrict"]
            for w in nbr_ranks:
                ops = [op for op in restricts if layout.region_distance(op[1], w) <= 2]
                comm.send(ops, w, tag=_tag(TAG_INTERIOR, level))
            for w in nbr_ranks:
                ops = comm.recv(w, tag=_tag(TAG_INTERIOR, level))
                with comm.clock.compute():
                    _apply_ops(store, ops, layout, comm.rank)

        # -- phase 2: color loop over boundary boxes ---------------------
        for color in colors:
            with trace.span("factor.color", level=level, color=color,
                            mine=color == my_color):
                if color == my_color:
                    log: list = []
                    with comm.clock.compute():
                        sweep_level(
                            store, known.kernel, geometry, level, boundary, opts, records,
                            update_log=log,
                        )
                    for w in nbr_ranks:
                        comm.send(
                            _filter_ops(log, w, layout), w, tag=_tag(TAG_COLOR, level, color)
                        )
                else:
                    for w in nbr_ranks:
                        if layout.color(w) == color:
                            ops = comm.recv(w, tag=_tag(TAG_COLOR, level, color))
                            with comm.clock.compute():
                                _apply_ops(store, ops, layout, comm.rank)

        if level == 1:
            break

        # -- transition ---------------------------------------------------
        next_layout = LevelLayout(level - 1, p)
        if layout.reduces():
            leader = layout.reduction_leader(comm.rank)
            if leader != comm.rank:
                ids, coords, per_point = known.outgoing()
                comm.send(
                    dict(
                        own=own_boxes,
                        active={b: known.local_to_global[ix] for b, ix in store.active.items()},
                        blocks=store.blocks,
                        ids=ids,
                        coords=coords,
                        per_point=per_point,
                    ),
                    leader,
                    tag=_tag(TAG_REDUCE, level),
                )
                break  # this rank is done factoring
            # leader absorbs its three sibling retirees
            ships = {
                src: comm.recv(src, tag=_tag(TAG_REDUCE, level))
                for src in layout.reduction_retirees(comm.rank)
            }
            with comm.clock.compute():
                known.append(
                    (ship["ids"], ship["coords"], ship["per_point"]) for ship in ships.values()
                )
                for src, ship in ships.items():
                    own_boxes = own_boxes + list(ship["own"])
                    for b, ids in ship["active"].items():
                        store.active[b] = known.local(ids, f"the reduction from rank {src}")
                    for key, blk in ship["blocks"].items():
                        if key not in store.blocks:
                            store.set(key[0], key[1], blk)
            own_boxes.sort(key=lambda c: morton_encode(c[0], c[1]))
            active = store.active

        # -- pre-assembly strip refresh (width 3, child units) ------------
        # own boxes within 3 child boxes of each next-level neighbour's
        # merged region; a box the store does not know is not sent
        strips = {}
        for w in next_layout.neighbor_ranks(comm.rank):
            x0, y0, x1, y1 = (2 * c for c in next_layout.region_bounds(w))
            strips[w] = [
                b for b in own_boxes
                if b in active
                and max(x0 - b[0], b[0] - x1 + 1, y0 - b[1], b[1] - y1 + 1) <= 3
            ]
        _exchange_boxes(comm, known, active, strips, _tag(TAG_STRIP, level))

        # -- parent assembly ----------------------------------------------
        # the next level's active map holds own parents only; its halo is
        # refilled by the level-start halo refresh at the parent level
        with trace.span("factor.transition", level=level), comm.clock.compute():
            own_boxes = sorted(
                {(b[0] >> 1, b[1] >> 1) for b in own_boxes},
                key=lambda c: morton_encode(c[0], c[1]),
            )
            store.kernel = known.kernel  # grown by the reduction and the strip
            active, seed_blocks = assemble_parents(
                store, geometry, level, own=own_boxes
            )

    for rec in records:  # records leave the rank in global ids
        rec.redundant, rec.skeleton, rec.cluster = (
            known.local_to_global[ix] for ix in (rec.redundant, rec.skeleton, rec.cluster)
        )
    return WorkerResult(
        rank=comm.rank,
        records=records,
        leaf_ids=leaf_ids,
        dtype=np.dtype(known.kernel.dtype),
        nlevels=nlevels,
    )


def scatter_payloads(kernel: KernelMatrix, nlevels: int, domain: Square, p: int) -> list[dict]:
    """Each rank's own leaf boxes (Morton order) and distance-2 halo, with
    their points in the rank's local numbering: own boxes' first."""
    tree = QuadTree(kernel.points, nlevels, domain=domain)
    layout = LevelLayout(nlevels, p)
    payloads = []
    for r in range(p):
        own = layout.owned_boxes(r)
        active = {b: tree.leaf_points(*b) for b in own + layout.halo_boxes(r, 2)}
        ids = np.concatenate([np.empty(0, dtype=np.int64), *active.values()])
        coords, per_point = kernel.points[ids], kernel.per_point_data(ids)
        payloads.append(dict(own=own, active=active, ids=ids, coords=coords, per_point=per_point))
    return payloads


class RankPoints:
    """The points one rank knows, numbered in arrival order and never
    renumbered: local id ``i`` is ``local_to_global[i]``, and ``kernel``
    is the problem's kernel spawned over them."""

    def __init__(self, kernel: KernelMatrix, ids: np.ndarray):
        self.kernel = kernel
        self.local_to_global = np.asarray(ids, dtype=np.int64)
        self._g2l = {g: i for i, g in enumerate(self.local_to_global.tolist())}

    def local(self, ids: np.ndarray, message: str) -> np.ndarray:
        """Local ids of the global ``ids`` that ``message`` names."""
        try:
            return np.array([self._g2l[g] for g in ids.tolist()], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"{message} names global point {exc.args[0]}, "
                           "which this rank was never sent") from None

    def outgoing(self, ids: np.ndarray | None = None) -> tuple:
        """``(global ids, coords, per-point data)`` of local ``ids`` (default all)."""
        ids = np.arange(self.local_to_global.size) if ids is None else ids
        return self.local_to_global[ids], self.kernel.points[ids], self.kernel.per_point_data(ids)

    def append(self, arrivals: Iterable[tuple[np.ndarray, np.ndarray, dict]]) -> None:
        """Number the unknown points of ``(distinct global ids, coords,
        per-point data)`` arrivals next; re-spawn the kernel once."""
        new = []
        for ids, coords, data in arrivals:
            take = [i for i, g in enumerate(ids.tolist()) if g not in self._g2l]
            if take:
                n = len(self._g2l)
                self._g2l.update(zip(ids[take].tolist(), range(n, n + len(take))))
                new.append((ids[take], coords[take], {k: v[take] for k, v in data.items()}))
        if new:
            ids, coords, data = zip(self.outgoing(), *new)
            self.local_to_global = np.concatenate(ids)
            self.kernel = self.kernel.spawn(
                np.concatenate(coords), {k: np.concatenate([d[k] for d in data]) for k in data[0]}
            )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _filter_ops(log: list, w: int, layout: LevelLayout) -> list:
    """Entries of an update log relevant to neighbor rank ``w``."""
    out = []
    for op in log:
        if op[0] == "restrict":
            if layout.region_distance(op[1], w) <= 2:
                out.append(op)
        else:
            _, bi, bj, _d = op
            if layout.owner(bi) == w or layout.owner(bj) == w:
                out.append(op)
    return out


def _apply_ops(store: InteractionStore, ops: list, layout: LevelLayout, rank: int) -> None:
    """Replay a neighbor's update log on the local store."""
    for op in ops:
        if op[0] == "restrict":
            _, box, keep = op
            if box in store.active:
                store.restrict(box, keep)
        else:
            _, bi, bj, delta = op
            if bi not in store.active or bj not in store.active:
                continue
            if layout.owner(bi) != rank and layout.owner(bj) != rank:
                continue
            blk = store.get_writable(bi, bj)
            if blk.shape != delta.shape:  # pragma: no cover - protocol bug guard
                raise RuntimeError(
                    f"rank {rank}: delta shape mismatch for {bi} x {bj}: "
                    f"{blk.shape} vs {delta.shape}"
                )
            blk -= delta


def _exchange_boxes(
    comm: Comm,
    known: RankPoints,
    active: dict[Coord, np.ndarray],
    picks: dict[int, list[Coord]],
    tag: int,
) -> None:
    """Send each neighbour ``w`` the ``(global ids, coords, per-point)`` of
    the own boxes ``picks[w]``, then number what comes back and merge it
    into ``active``. A box with no active indices goes as an empty triple."""
    empty = (np.empty(0, dtype=np.int64), np.empty((0, 2)), {})
    for w, boxes in picks.items():
        msg = {b: known.outgoing(active[b]) if b in active and active[b].size else empty
               for b in boxes}
        comm.send(msg, w, tag=tag)
    msgs = {w: comm.recv(w, tag=tag) for w in picks}
    known.append(triple for msg in msgs.values() for triple in msg.values())
    for w, msg in msgs.items():
        for b, (ids, _, _) in msg.items():
            active[b] = known.local(ids, f"message {tag} from rank {w}")
