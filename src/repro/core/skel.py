"""The strong skeletonization operator ``Z(A; B)`` (Sec. II C–D).

One call to :func:`skeletonize_box`:

1. compresses the interaction between box ``B`` and its far field with
   a single column ID of the stacked matrix
   ``[A[M,B]; A[B,M]^*; K[proxy,B]; K[B,proxy]^*]`` (Eq. 5/7) — only
   distance-2 neighbors and the proxy circle are ever read (Remark 1);
2. sparsifies (Eq. 8) and eliminates the redundant indices ``R`` by a
   partial LU, producing a Schur-complement update that touches only
   ``{S} ∪ N(B)`` (Remark 2);
3. returns a :class:`BoxRecord` holding everything the solve phase
   needs, and shrinks the box's active set to its skeleton in the
   interaction store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.interactions import Coord, InteractionStore
from repro.core.options import SRSOptions
from repro.kernels.base import KernelMatrix
from repro.linalg.interpolative import InterpolativeDecomposition, interp_decomp
from repro.linalg.lu import PartialLU
from repro.obs import COUNT_BUCKETS, REGISTRY, health, trace

_ID_COMPRESSIONS = REGISTRY.counter(
    "repro_id_compressions_total",
    "Interpolative decompositions performed during factorization",
)
_SKELETON_RANK = REGISTRY.histogram(
    "repro_skeleton_rank",
    "Skeleton count kept per compressed box",
    buckets=COUNT_BUCKETS,
)


@dataclass
class BoxRecord:
    """Solve-phase data for one skeletonized box.

    ``cluster`` concatenates the skeleton ``S`` of the box with the
    active indices of its (nonempty) neighbors at processing time; the
    stored blocks are indexed consistently:

    * ``x_cr`` is ``X[C, R]`` (cluster rows, redundant columns),
    * ``x_rc`` is ``X[R, C]``.
    """

    box: Coord
    level: int
    redundant: np.ndarray
    skeleton: np.ndarray
    cluster: np.ndarray
    T: np.ndarray
    lu: PartialLU
    x_cr: np.ndarray
    x_rc: np.ndarray
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
        total = self.T.nbytes + self.x_cr.nbytes + self.x_rc.nbytes
        total += self.lu.memory_bytes()
        total += self.redundant.nbytes + self.skeleton.nbytes + self.cluster.nbytes
        return int(total)

    # ------------------------------------------------------------------
    # solve-phase operators (Sec. II-F); operate in place on the global
    # right-hand-side array ``x`` (shape (N,) or (N, nrhs)).
    # ------------------------------------------------------------------
    def apply_v(self, x: np.ndarray, *, collect: bool = False):
        """Upward sweep: apply ``V = L S* P^T`` of this box to ``x``.

        With ``collect=True``, returns ``(cluster, update)`` where
        ``update`` is the amount *subtracted* from ``x[cluster]`` — the
        distributed solve forwards the remote-owned part to neighbors.
        """
        if self.redundant.size == 0:
            return (self.cluster, None) if collect else None
        v_r = x[self.redundant]
        if self.skeleton.size:
            v_r = v_r - self.T.conj().T @ x[self.skeleton]
        t = self.lu.solve_left(v_r)
        update = None
        if self.cluster.size:
            update = self.x_cr @ t
            x[self.cluster] -= update
        x[self.redundant] = self.lu.apply_lower_inverse(v_r)
        if collect:
            return (self.cluster, update)
        return None

    def apply_w(self, x: np.ndarray) -> None:
        """Downward sweep: apply ``W = P S U`` of this box to ``x``."""
        if self.redundant.size == 0:
            return
        x_r = self.lu.apply_upper_inverse(x[self.redundant])
        if self.cluster.size:
            x_r = x_r - self.lu.solve_left(self.x_rc @ x[self.cluster])
        x[self.redundant] = x_r
        if self.skeleton.size:
            x[self.skeleton] -= self.T @ x_r

    # ------------------------------------------------------------------
    # forward-apply operators: exact inverses of apply_v / apply_w, used
    # by SRSFactorization.matvec to apply the *compressed A* itself.
    # ------------------------------------------------------------------
    def unapply_v(self, x: np.ndarray) -> None:
        """Invert :meth:`apply_v` in place (apply ``V^{-1}``)."""
        if self.redundant.size == 0:
            return
        v_r = self.lu.apply_lower(x[self.redundant])
        if self.cluster.size:
            x[self.cluster] += self.x_cr @ self.lu.solve_left(v_r)
        if self.skeleton.size:
            v_r = v_r + self.T.conj().T @ x[self.skeleton]
        x[self.redundant] = v_r

    def unapply_w(self, x: np.ndarray) -> None:
        """Invert :meth:`apply_w` in place (apply ``W^{-1}``)."""
        if self.redundant.size == 0:
            return
        x_r = x[self.redundant]
        if self.skeleton.size:
            x[self.skeleton] += self.T @ x_r
        if self.cluster.size:
            x_r = x_r + self.lu.solve_left(self.x_rc @ x[self.cluster])
        x[self.redundant] = self.lu.apply_upper(x_r)


def skeletonize_box(
    store: InteractionStore,
    kernel: KernelMatrix,
    box: Coord,
    neighbors: list[Coord],
    m_boxes: list[Coord],
    proxy_points: np.ndarray | None,
    opts: SRSOptions,
    *,
    level: int,
    update_log: list | None = None,
) -> BoxRecord | None:
    """Apply the strong skeletonization operator to ``box``.

    ``neighbors`` / ``m_boxes`` are the same-level ``N(B)`` / ``M(B)``
    lists restricted to boxes present in the store. ``proxy_points`` is
    ``None`` at levels whose far field is empty (grid < 4x4), which
    makes the ID classify *every* index as redundant — skeletonization
    then degenerates to plain block elimination, so one code path
    factors all levels down to the root (Eq. 12).

    When ``update_log`` is a list, every mutation of the store is also
    appended to it, in execution order, as ``("restrict", box, keep)``
    or ``("delta", bi, bj, delta)`` tuples — the distributed workers
    forward the relevant entries to neighbor ranks so replicated blocks
    stay consistent (Sec. III-B, "send data to neighbors").
    """
    bidx = store.active_of(box)
    if bidx.size == 0:
        return None
    with trace.span("factor.skeletonize", level=level, box=str(box), size=int(bidx.size)):
        with trace.span("factor.id", rows=int(bidx.size)):
            stacked = compression_matrix(store, kernel, box, m_boxes, proxy_points)
            dec = interp_decomp(stacked, opts.tol, method=opts.id_method)
        return eliminate_box(
            store, box, neighbors, dec, level=level, update_log=update_log
        )


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

    Records the compression (ID count, skeleton rank, solver health),
    then runs the partial-LU elimination and the Schur updates. The
    level sweep calls it directly when a colour phase's compressions
    were hoisted out and stacked (:mod:`repro.core.batch`).
    """
    bidx = store.active_of(box)
    nbrs = [n for n in neighbors if n in store.active and store.nactive(n) > 0]
    s_loc, r_loc, t_mat = dec.skeleton, dec.redundant, dec.T
    dtype = t_mat.dtype  # the compression matrix's dtype
    _ID_COMPRESSIONS.inc()
    _SKELETON_RANK.observe(s_loc.size)
    health.record_box(level, int(bidx.size), int(s_loc.size))
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

    # -- 2. sparsification of the diagonal block ------------------------
    a_bb = store.get(box, box)
    a_rr = a_bb[np.ix_(r_loc, r_loc)]
    a_sr = a_bb[np.ix_(s_loc, r_loc)]
    a_rs = a_bb[np.ix_(r_loc, s_loc)]
    a_ss = a_bb[np.ix_(s_loc, s_loc)]
    x_rr = a_rr - t_h @ a_sr - a_rs @ t_mat + t_h @ (a_ss @ t_mat)
    x_sr = a_sr - a_ss @ t_mat
    x_rs = a_rs - t_h @ a_ss
    lu = PartialLU(x_rr)

    # -- cluster blocks X[C, R], X[R, C] with C = [S] + neighbor actives
    cr_segments = [x_sr]
    rc_segments = [x_rs]
    cluster_parts = [bidx[s_loc]]
    segment_boxes = [box]
    for n in nbrs:
        a_nb = store.get(n, box)
        cr_segments.append(a_nb[:, r_loc] - a_nb[:, s_loc] @ t_mat)
        a_bn = store.get(box, n)
        rc_segments.append(a_bn[r_loc, :] - t_h @ a_bn[s_loc, :])
        cluster_parts.append(store.active_of(n))
        segment_boxes.append(n)
    x_cr = np.vstack(cr_segments)
    x_rc = np.hstack(rc_segments)
    cluster = np.concatenate(cluster_parts) if cluster_parts else np.empty(0, dtype=np.int64)
    seg_bounds = np.concatenate([[0], np.cumsum([part.size for part in cluster_parts])])
    cluster_segments = [
        (segment_boxes[k], int(seg_bounds[k]), int(seg_bounds[k + 1]))
        for k in range(len(segment_boxes))
    ]

    record = BoxRecord(
        box, level, bidx[r_loc], bidx[s_loc], cluster, t_mat, lu, x_cr, x_rc, cluster_segments
    )

    # -- 3. Schur-complement update of {S} ∪ N(B) ----------------------
    y = lu.solve_left(x_rc)  # X_RR^{-1} X[R, C]
    delta = x_cr @ y  # (|C|, |C|)

    store.restrict(box, s_loc)
    if update_log is not None:
        update_log.append(("restrict", box, s_loc.copy()))

    seg_boxes = [box] + nbrs
    sizes = [s_loc.size] + [store.nactive(n) for n in nbrs]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for i, bi in enumerate(seg_boxes):
        ri = slice(offsets[i], offsets[i + 1])
        if sizes[i] == 0:
            continue
        for j, bj in enumerate(seg_boxes):
            if sizes[j] == 0:
                continue
            cj = slice(offsets[j], offsets[j + 1])
            blk = store.get_writable(bi, bj)
            d_ij = delta[ri, cj]
            blk -= d_ij
            if update_log is not None:
                update_log.append(("delta", bi, bj, d_ij.copy()))
    return record


def compression_matrix(
    store: InteractionStore,
    kernel: KernelMatrix,
    box: Coord,
    m_boxes: list[Coord],
    proxy_points: np.ndarray | None,
) -> np.ndarray:
    """Stack ``[A[M,B]; A[B,M]^*; K[proxy,B]; K[B,proxy]^*]`` (Eq. 7)."""
    bidx = store.active_of(box)
    rows: list[np.ndarray] = []
    for mb in m_boxes:
        if mb in store.active and store.nactive(mb) > 0:
            rows.append(store.get(mb, box))
            rows.append(store.get(box, mb).conj().T)
    if proxy_points is not None and proxy_points.shape[0] > 0:
        rows.append(kernel.proxy_row_block(proxy_points, bidx))
        rows.append(kernel.proxy_col_block(bidx, proxy_points).conj().T)
    if not rows:
        return np.zeros((0, bidx.size), dtype=kernel.dtype)
    return np.vstack(rows)
