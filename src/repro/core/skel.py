"""The elimination half of ``Z(A; B)`` (Sec. II C–D) and the solve sweeps.

The compression half — one column ID of the stacked matrix
``[A[M,B]; A[B,M]^*; K[proxy,B]; K[B,proxy]^*]`` (Eq. 5/7), reading only
distance-2 neighbors and the proxy circle (Remark 1) — is
:func:`repro.core.batch.compress_phase`. Given its decomposition,
:func:`eliminate_box`:

1. sparsifies (Eq. 8) and eliminates the redundant indices ``R`` by a
   partial LU ``P X_RR = L U``, producing a Schur-complement update
   that touches only ``{S} ∪ N(B)`` (Remark 2);
2. returns a :class:`BoxRecord` holding everything the solve phase
   needs, and shrinks the box's active set to its skeleton in the
   interaction store.

The record stores the elimination multipliers ``E = X[C, R] U^{-1}``
and ``G = L^{-1} P X[R, C]`` rather than the sparsified blocks (as the
RS-S factorization of Minden, Ho, Damle & Ying does): the factor needs
exactly these two triangular solves for the Schur update ``E G``, and
with them each solve sweep applies a box with one triangular solve —
``L^{-1}`` going up, ``U^{-1}`` coming down — instead of five.

With an empty far field (grid < 4x4) every index is redundant, so one
code path factors all levels down to the root (Eq. 12).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.interactions import Coord, InteractionStore
from repro.linalg.interpolative import InterpolativeDecomposition
from repro.linalg.lu import PartialLU, singular, trtrs_for


@dataclass
class BoxRecord:
    """Solve-phase data for one skeletonized box.

    ``cluster`` concatenates the skeleton ``S`` of the box with the
    active indices of its (nonempty) neighbors at processing time. With
    ``P X_RR = L U`` the partial LU of the sparsified redundant block
    (``lu``), the record keeps the elimination *multipliers*, not the
    sparsified blocks ``X[C, R]`` / ``X[R, C]`` themselves:

    * ``e_cr`` is ``E = X[C, R] U^{-1}`` (cluster rows, redundant columns),
    * ``g_rc`` is ``G = L^{-1} P X[R, C]``,

    so ``E G`` is the Schur update ``X[C, R] X_RR^{-1} X[R, C]`` and each
    sweep applies a box with one triangular solve.
    """

    box: Coord
    level: int
    redundant: np.ndarray
    skeleton: np.ndarray
    cluster: np.ndarray
    T: np.ndarray
    lu: PartialLU
    e_cr: np.ndarray
    g_rc: np.ndarray
    #: (box, start, end) segments of ``cluster`` — first the skeleton of
    #: this box, then each neighbor's active slice. The distributed
    #: solve uses this to route updates to the owning rank.
    cluster_segments: list[tuple[Coord, int, int]] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return self.skeleton.size

    def memory_bytes(self) -> int:
        """Bytes of everything this record keeps alive for the solve phase.

        Counts the dense solve blocks, the LU factors (via the public
        :meth:`~repro.linalg.lu.PartialLU.memory_bytes`), *and* the
        index arrays — cache byte budgets and the store's accounting
        depend on this being the full footprint.
        """
        total = self.T.nbytes + self.e_cr.nbytes + self.g_rc.nbytes
        total += self.lu.memory_bytes()
        total += self.redundant.nbytes + self.skeleton.nbytes + self.cluster.nbytes
        return int(total)


# ----------------------------------------------------------------------
# solve-phase sweeps (Sec. II-F), in place on the global right-hand-side
# array ``x`` of shape (N,) or (N, ncols): the one implementation behind
# the sequential, shared-memory and distributed solves. A box costs one
# triangular solve per sweep; ``x`` has the factorization's dtype (see
# :func:`sweep_view`), so ``?trtrs`` is looked up once per sweep.
# ----------------------------------------------------------------------
def sweep_view(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The array the sweeps run on for a right-hand side ``x``.

    ``x`` itself, unless it is complex on a real factorization: every
    sweep step is real-linear then, so the view presents the same
    (C-contiguous) memory as twice as many real columns and no stored
    block is ever cast to complex.
    """
    if x.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        return x.view(x.real.dtype).reshape(x.shape[0], -1)
    return x


def sweep_up(
    records: Sequence[BoxRecord], x: np.ndarray, *, collect: bool = False
) -> list[tuple[BoxRecord, np.ndarray]]:
    """Upward sweep: apply ``V = L S* P^T`` of each record, in order.

    Per box: ``w = L^{-1} P (x_R - T^H x_S)``, ``x_C -= E w``, ``x_R = w``.
    With ``collect=True``, returns ``(record, update)`` pairs where
    ``update`` is the amount *subtracted* from ``x[record.cluster]`` — the
    distributed solve forwards the remote-owned part to neighbors.
    """
    conj = x.dtype.kind == "c"
    trtrs = trtrs_for(x.dtype)
    updates = []
    for rec in records:
        red = rec.redundant
        if not red.size:
            continue
        lu, perm = rec.lu.solve_state()
        v_r = x[red]
        if rec.skeleton.size:
            y = x[rec.skeleton]
            # T^H y without materialising conj(T)
            v_r -= (rec.T.T @ y.conj()).conj() if conj else rec.T.T @ y
        w, _ = trtrs(lu, v_r[perm], lower=1, unitdiag=1, overwrite_b=1)
        if rec.cluster.size:
            update = rec.e_cr @ w
            x[rec.cluster] -= update
            if collect:
                updates.append((rec, update))
        x[red] = w
    return updates


def sweep_down(records: Sequence[BoxRecord], x: np.ndarray) -> None:
    """Downward sweep: apply ``W = P S U`` of each record, in reverse order.

    Per box: ``x_R = U^{-1} (x_R - G x_C)``, then ``x_S -= T x_R``.
    """
    trtrs = trtrs_for(x.dtype)
    for rec in reversed(records):
        red = rec.redundant
        if not red.size:
            continue
        lu, _ = rec.lu.solve_state()
        v_r = x[red]
        if rec.cluster.size:
            v_r -= rec.g_rc @ x[rec.cluster]
        x_r, info = trtrs(lu, v_r, overwrite_b=1)
        if info:
            raise singular(info)
        x[red] = x_r
        if rec.skeleton.size:
            x[rec.skeleton] -= rec.T @ x_r


def unsweep_down(records: Sequence[BoxRecord], x: np.ndarray) -> None:
    """Exact inverse of :func:`sweep_down` (apply each ``W^{-1}``, in order):
    ``x_S += T x_R``, then ``x_R = U x_R + G x_C``."""
    for rec in records:
        if rec.redundant.size == 0:
            continue
        x_r = x[rec.redundant]
        if rec.skeleton.size:
            x[rec.skeleton] += rec.T @ x_r
        x_r = rec.lu.apply_upper(x_r)
        if rec.cluster.size:
            x_r += rec.g_rc @ x[rec.cluster]
        x[rec.redundant] = x_r


def unsweep_up(records: Sequence[BoxRecord], x: np.ndarray) -> None:
    """Exact inverse of :func:`sweep_up` (apply each ``V^{-1}``, in reverse
    order): ``x_C += E w``, then ``x_R = P^T L w + T^H x_S``."""
    for rec in reversed(records):
        if rec.redundant.size == 0:
            continue
        w = x[rec.redundant]
        if rec.cluster.size:
            x[rec.cluster] += rec.e_cr @ w
        v_r = rec.lu.apply_lower(w)
        if rec.skeleton.size:
            v_r += rec.T.conj().T @ x[rec.skeleton]
        x[rec.redundant] = v_r


def eliminate_box(
    store: InteractionStore,
    box: Coord,
    neighbors: list[Coord],
    dec: InterpolativeDecomposition,
    *,
    level: int,
    update_log: list | None = None,
) -> BoxRecord:
    """The elimination half of ``Z(A; B)`` for an already compressed box.

    Runs the partial-LU elimination and the Schur updates; the caller
    keeps the returned record, which is all the statistics need
    (:meth:`~repro.core.stats.RankStats.of`).

    When ``update_log`` is a list, every mutation of the store is also
    appended to it, in execution order, as ``("restrict", box, keep)``
    or ``("delta", bi, bj, delta)`` tuples (pairs in the store's stored
    orientation, :meth:`~repro.core.interactions.InteractionStore.subtract_schur`)
    — the distributed workers forward the relevant entries to neighbor
    ranks so replicated blocks stay consistent (Sec. III-B, "send data
    to neighbors").
    """
    bidx = store.active_of(box)
    nbrs = [n for n in neighbors if n in store.active and store.nactive(n) > 0]
    s_loc, r_loc, t_mat = dec.skeleton, dec.redundant, dec.T
    dtype = t_mat.dtype  # the kernel dtype (a real ID's T is cast to it)
    if r_loc.size == 0:
        # nothing to eliminate; keep the box as is
        return BoxRecord(
            box,
            level,
            bidx[r_loc],
            bidx[s_loc],
            np.empty(0, dtype=np.int64),
            t_mat,
            PartialLU(np.zeros((0, 0), dtype=dtype)),
            np.zeros((0, 0), dtype=dtype),
            np.zeros((0, 0), dtype=dtype),
            [],
        )
    t_h = t_mat.conj().T

    # -- 2. sparsification (Eq. 8) of the cluster C = [S] + neighbor actives,
    # gathered as two panels: A[C, B] (rows S of A_BB, then each A[n, B])
    # and A[B, C] (columns S of A_BB, then each A[B, n])
    a_bb = store.get(box, box)
    cb_panels = [a_bb[s_loc]]
    bc_panels = [a_bb[:, s_loc]]
    cluster_parts = [bidx[s_loc]]
    for n in nbrs:
        a_nb, a_bn = store.get_pair(n, box)
        cb_panels.append(a_nb)
        bc_panels.append(a_bn)
        cluster_parts.append(store.active_of(n))
    a_cb = np.vstack(cb_panels)
    x_cr = a_cb[:, r_loc] - a_cb[:, s_loc] @ t_mat  # rows [:|S|] are X[S, R]
    x_rr = (
        a_bb[np.ix_(r_loc, r_loc)] - a_bb[np.ix_(r_loc, s_loc)] @ t_mat
        - t_h @ x_cr[: s_loc.size]
    )
    lu = PartialLU(x_rr)
    factors, perm = lu.solve_state()
    a_bc = np.hstack(bc_panels)
    px_rc = a_bc[r_loc[perm]] - t_h[perm] @ a_bc[s_loc]  # P X[R, C]

    cluster = np.concatenate(cluster_parts)
    seg_bounds = np.cumsum([0] + [part.size for part in cluster_parts]).tolist()
    cluster_segments = [
        (seg_box, seg_bounds[k], seg_bounds[k + 1])
        for k, seg_box in enumerate([box] + nbrs)
    ]

    # -- the multipliers E = X[C, R] U^{-1}, G = L^{-1} P X[R, C] --------
    trtrs = trtrs_for(factors.dtype)
    # E^T = U^{-T} X[C, R]^T, in place on the fresh (Fortran-order) X[C, R]^T
    e_t, info = trtrs(factors, x_cr.T, trans=1, overwrite_b=1)
    if info:
        raise singular(info)
    g_rc, _ = trtrs(factors, px_rc, lower=1, unitdiag=1, overwrite_b=1)
    e_cr = e_t.T

    record = BoxRecord(
        box, level, bidx[r_loc], bidx[s_loc], cluster, t_mat, lu, e_cr, g_rc, cluster_segments
    )

    # -- 3. Schur-complement update of {S} ∪ N(B) ----------------------
    delta = e_cr @ g_rc  # X[C, R] X_RR^{-1} X[R, C], (|C|, |C|)

    store.restrict(box, s_loc)
    if update_log is not None:
        update_log.append(("restrict", box, s_loc.copy()))
    store.subtract_schur([box] + nbrs, delta, update_log)
    return record
