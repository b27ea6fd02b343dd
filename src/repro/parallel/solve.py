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
"""

from __future__ import annotations

import numpy as np

from repro.core.skel import sweep_down, sweep_up, sweep_view
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

    comm.barrier()
    comm.clock.local_time = 0.0
    comm.clock.compute_time = 0.0
    comm.clock.comm_time = 0.0

    received_up: dict[tuple[int, int], np.ndarray] = {}

    # ---------------------------- upward sweep --------------------------
    for plan in my.plans:
        layout = LevelLayout(plan.level, p)
        with comm.clock.compute():
            sweep_up(my.records[plan.rec_interior[0] : plan.rec_interior[1]], x)
        for color in plan.colors:
            if color == plan.my_color:
                per: dict[int, tuple[list, list]] = {w: ([], []) for w in plan.neighbor_ranks}
                with comm.clock.compute():
                    boundary = my.records[plan.rec_boundary[0] : plan.rec_boundary[1]]
                    for rec, upd in sweep_up(boundary, x, collect=True):
                        for seg_box, s, e in rec.cluster_segments:
                            owner = layout.owner(seg_box)
                            if owner != comm.rank:
                                per[owner][0].append(rec.cluster[s:e])
                                per[owner][1].append(upd[s:e])
                for w in plan.neighbor_ranks:
                    idx_list, delta_list = per[w]
                    if idx_list:
                        msg = (np.concatenate(idx_list), np.concatenate(delta_list))
                    else:
                        msg = (np.empty(0, dtype=np.int64), None)
                    comm.send(msg, w, tag=_tag(TAG_UP_COLOR, plan.level, color))
            else:
                for w in plan.neighbor_ranks:
                    if plan.neighbor_colors[w] == color:
                        mids, mdelta = comm.recv(w, tag=_tag(TAG_UP_COLOR, plan.level, color))
                        if mids.size:
                            # the same entry may appear in several boxes'
                            # update segments; unbuffered accumulation is
                            # required (plain fancy-index -= drops dups)
                            np.subtract.at(x, mids, mdelta)
        if plan.reduction_after:
            if plan.retired_after:
                up_ids = _survivors(my, plan)
                assert plan.reduction_leader is not None
                comm.send(
                    (up_ids, x[up_ids]),
                    plan.reduction_leader,
                    tag=_tag(TAG_UP_REDUCE, plan.level),
                )
            else:
                for src in plan.reduction_sources:
                    rid, rv = comm.recv(src, tag=_tag(TAG_UP_REDUCE, plan.level))
                    x[rid] = rv
                    received_up[(plan.level, src)] = rid

    # --------------------------- downward sweep -------------------------
    for plan in reversed(my.plans):
        layout = LevelLayout(plan.level, p)
        if plan.reduction_after:
            if plan.retired_after:
                rid, rv = comm.recv(
                    plan.reduction_leader, tag=_tag(TAG_DOWN_REDUCE, plan.level)
                )
                x[rid] = rv
            else:
                for src in plan.reduction_sources:
                    rid = received_up[(plan.level, src)]
                    comm.send((rid, x[rid]), src, tag=_tag(TAG_DOWN_REDUCE, plan.level))
        for color in reversed(plan.colors):
            if plan.my_color == color:
                for w in plan.neighbor_ranks:
                    rid, rv = comm.recv(w, tag=_tag(TAG_DOWN_REFRESH, plan.level, color))
                    if rid.size:
                        x[rid] = rv
                with comm.clock.compute():
                    sweep_down(my.records[plan.rec_boundary[0] : plan.rec_boundary[1]], x)
            else:
                for w in plan.neighbor_ranks:
                    if plan.neighbor_colors[w] == color:
                        ids3 = [
                            pts
                            for box, pts in plan.level_points.items()
                            if layout.region_distance(box, w) <= 1 and pts.size
                        ]
                        if ids3:
                            rid = np.concatenate(ids3)
                            msg = (rid, x[rid])
                        else:
                            msg = (np.empty(0, dtype=np.int64), None)
                        comm.send(msg, w, tag=_tag(TAG_DOWN_REFRESH, plan.level, color))
        with comm.clock.compute():
            sweep_down(my.records[plan.rec_interior[0] : plan.rec_interior[1]], x)

    # ------------------------------ gather ------------------------------
    gathered = comm.gather((my.leaf_ids, rhs[my.leaf_ids]), 0)
    if comm.rank != 0:
        return None
    assert gathered is not None
    out = np.zeros_like(rhs)
    for rid, rv in gathered:
        out[rid] = rv
    return out


def _survivors(my: WorkerResult, plan) -> np.ndarray:
    """Global ids still active on this rank after ``plan``'s level."""
    parts = [
        rec.skeleton
        for rec in my.records[plan.rec_interior[0] : plan.rec_boundary[1]]
        if rec.skeleton.size
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
