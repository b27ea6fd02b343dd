"""Distributed application of the factored inverse (Sec. II-F, III).

The solve replays the factorization schedule. Upward sweep: interior
records apply locally; boundary records run in the same color rounds,
forwarding the additive updates that land on remote-owned skeleton
entries to the owning neighbor; reductions ship the surviving entries
of retiring ranks to their leader. The downward sweep reverses
everything, with a value *refresh* before each reverse color round
(the downward sweep reads neighbor entries instead of writing them).
The sweeps themselves are the sequential solver's
(:func:`~repro.core.skel.sweep_up` / :func:`~repro.core.skel.sweep_down`)
over this rank's slice of records.

Each solve derives the schedule afresh, in O(records) integer
arithmetic: levels, colours, neighbours and reduction partners from
each level's :class:`~repro.parallel.ownership.LevelLayout`; the
interior/boundary split and the ids a message ships from the records.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from repro.core.skel import BoxRecord, sweep_down, sweep_up, sweep_view
from repro.parallel.ownership import LevelLayout
from repro.parallel.worker import WorkerResult
from repro.vmpi.comm import Comm


def _tag(phase: int, level: int, color: int = 0) -> int:
    return 10_000_000 + phase * 100_000 + level * 16 + color


TAG_UP_COLOR = 1
TAG_UP_REDUCE = 2
TAG_DOWN_REDUCE = 3
TAG_DOWN_REFRESH = 4


def solve_worker(comm: Comm, workers: list[WorkerResult], n: int, b: np.ndarray | None):
    """SPMD entry point: apply the compressed inverse to ``b``.

    ``b`` is only inspected on rank 0; it is scattered by leaf
    ownership, swept, and gathered back. Returns the solution on rank 0
    and ``None`` elsewhere.
    """
    my = workers[comm.rank]
    leaf_ids_list = [w.leaf_ids for w in workers] if comm.rank == 0 else None
    return solve_shards(comm, my, leaf_ids_list, n, b)


def solve_shards(
    comm: Comm,
    my: WorkerResult,
    leaf_ids_list: list[np.ndarray] | None,
    n: int,
    b: np.ndarray | None,
):
    """Apply the compressed inverse given only this rank's shard.

    The core of :func:`solve_worker`, factored so callers that already
    hold their own :class:`WorkerResult` (worker-resident dispatch,
    ``repro.store``) need not re-ship the whole factorization: rank 0
    needs every rank's ``leaf_ids`` (to scatter ``b`` by ownership) but
    nobody needs the other ranks' records. The communication pattern —
    scatter, color rounds, reductions, gather — is identical to a
    full-tree dispatch, so message/byte counters and results are
    bitwise-stable across the two entry points.
    """
    p = comm.size

    # -- scatter the right-hand side by leaf ownership -------------------
    payloads = None
    if comm.rank == 0:
        assert b is not None
        assert leaf_ids_list is not None
        dtype = np.result_type(my.dtype, b.dtype)
        payloads = [(ids, np.asarray(b)[ids].astype(dtype), b.shape[1:]) for ids in leaf_ids_list]
    ids, vals, tail_shape = comm.scatter(payloads, 0)
    rhs = np.zeros((n, *tail_shape), dtype=vals.dtype)
    rhs[ids] = vals
    # the sweeps and every message below work on ``rhs``'s own memory, as
    # real columns when a complex rhs meets a real factorization
    x = sweep_view(rhs, my.dtype)

    comm.clock.local_time = 0.0
    comm.clock.compute_time = 0.0
    comm.clock.comm_time = 0.0

    me = comm.rank
    received_up: dict[tuple[int, int], np.ndarray] = {}
    levels = _schedule(my, p, me)

    # ---------------------------- upward sweep --------------------------
    for lv in levels:
        layout, level = lv.layout, lv.layout.level
        with comm.clock.compute():
            sweep_up(lv.interior, x)
        for color in layout.colors_in_use():
            if color == layout.color(me):
                per: dict[int, tuple[list, list]] = {w: ([], []) for w in lv.neighbors}
                with comm.clock.compute():
                    for rec, upd in sweep_up(lv.boundary, x, collect=True):
                        for seg_box, s, e in rec.cluster_segments:
                            owner = layout.owner(seg_box)
                            if owner != me:
                                per[owner][0].append(rec.cluster[s:e])
                                per[owner][1].append(upd[s:e])
                for w in lv.neighbors:
                    idx_list, delta_list = per[w]
                    msg = (_ids(idx_list), np.concatenate(delta_list) if delta_list else None)
                    comm.send(msg, w, tag=_tag(TAG_UP_COLOR, level, color))
            else:
                for w, w_color in lv.neighbors.items():
                    if w_color == color:
                        mids, mdelta = comm.recv(w, tag=_tag(TAG_UP_COLOR, level, color))
                        if mids.size:
                            # the same entry may appear in several boxes'
                            # update segments; unbuffered accumulation is
                            # required (plain fancy-index -= drops dups)
                            np.subtract.at(x, mids, mdelta)
        if layout.reduces():
            leader = layout.reduction_leader(me)
            if leader != me:  # retiring: ship the surviving skeletons
                up_ids = _ids(rec.skeleton for rec in lv.interior + lv.boundary)
                comm.send((up_ids, x[up_ids]), leader, tag=_tag(TAG_UP_REDUCE, level))
            else:
                for src in layout.reduction_retirees(me):
                    rid, rv = comm.recv(src, tag=_tag(TAG_UP_REDUCE, level))
                    x[rid] = rv
                    received_up[(level, src)] = rid

    # --------------------------- downward sweep -------------------------
    for lv in reversed(levels):
        layout, level = lv.layout, lv.layout.level
        if layout.reduces():
            leader = layout.reduction_leader(me)
            if leader != me:
                rid, rv = comm.recv(leader, tag=_tag(TAG_DOWN_REDUCE, level))
                x[rid] = rv
            else:
                for src in layout.reduction_retirees(me):
                    rid = received_up[(level, src)]
                    comm.send((rid, x[rid]), src, tag=_tag(TAG_DOWN_REDUCE, level))
        for color in reversed(layout.colors_in_use()):
            if color == layout.color(me):
                for w in lv.neighbors:
                    rid, rv = comm.recv(w, tag=_tag(TAG_DOWN_REFRESH, level, color))
                    if rid.size:
                        x[rid] = rv
                with comm.clock.compute():
                    sweep_down(lv.boundary, x)
            else:
                recs = lv.interior + lv.boundary
                for w, w_color in lv.neighbors.items():
                    if w_color == color:
                        # every id the own boxes next to ``w`` held at level start
                        rid = _ids(
                            ids
                            for rec in recs
                            if layout.region_distance(rec.box, w) <= 1
                            for ids in (rec.skeleton, rec.redundant)
                        )
                        msg = (rid, x[rid]) if rid.size else (rid, None)
                        comm.send(msg, w, tag=_tag(TAG_DOWN_REFRESH, level, color))
        with comm.clock.compute():
            sweep_down(lv.interior, x)

    # ------------------------------ gather ------------------------------
    gathered = comm.gather((my.leaf_ids, rhs[my.leaf_ids]), 0)
    if comm.rank != 0:
        return None
    assert gathered is not None
    out = np.zeros_like(rhs)
    for rid, rv in gathered:
        out[rid] = rv
    return out


class _Level(NamedTuple):
    """One level of the factor's schedule on one rank, derived per solve."""

    layout: LevelLayout
    interior: list[BoxRecord]
    boundary: list[BoxRecord]
    #: neighbour rank -> its colour, in the layout's neighbour order
    neighbors: dict[int, int]


def _schedule(my: WorkerResult, p: int, rank: int) -> list[_Level]:
    """The levels ``rank`` factored at, leaf level first: those at which
    the layout counts it active, with its records split by the factor's
    own boundary test, in record order."""
    levels = []
    for level in range(my.nlevels, 0, -1):
        layout = LevelLayout(level, p)
        if not layout.is_active(rank):
            break
        interior: list[BoxRecord] = []
        boundary: list[BoxRecord] = []
        for rec in my.records:
            if rec.level == level:
                (boundary if layout.is_boundary(rec.box, rank) else interior).append(rec)
        neighbors = {w: layout.color(w) for w in layout.neighbor_ranks(rank)}
        levels.append(_Level(layout, interior, boundary, neighbors))
    return levels


def _ids(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """The non-empty index arrays of ``arrays``, concatenated."""
    parts = [a for a in arrays if a.size]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
