"""Interaction store: active index sets and modified near-field blocks.

The factorization maintains, per tree level, the *active* indices owned
by every box (leaf: points inside it; coarser levels: the skeletons of
its children) and the matrix blocks between pairs of boxes. Blocks that
have been touched by a Schur-complement update are stored densely
("modified"); everything else is generated on demand from the kernel —
legitimate because Theorem 1/2 guarantee untouched blocks are pure
kernel evaluations at every level.

This module is the one place that knows a block's *orientation*. For a
``symmetric`` or ``hermitian`` kernel (``A == A^T``: the real hermitian
kernels and the complex-symmetric Helmholtz volume kernel) the Schur
update ``X[C, R] X_RR^{-1} X[R, C]`` of Remark 2 is transpose-symmetric
to rounding — the sparsified ``X`` is, because such a kernel's
interpolation matrix ``T`` is real (:mod:`repro.core.batch`) — so the
store keeps one block per unordered pair, under ``(bi, bj)`` with
``bi <= bj``, and serves ``(bj, bi)`` as its ``.T`` view; every other
kernel keeps both orientations. Callers read and
write through :meth:`InteractionStore.get`, :meth:`~InteractionStore.get_pair`,
:meth:`~InteractionStore.set` and :meth:`~InteractionStore.subtract_schur`
and never see the difference, except that the update log and
:attr:`~InteractionStore.blocks` carry stored orientations only
(:meth:`~InteractionStore.stored_key`).

Invariant: a stored block always covers exactly the *current* active
sets of its box pair, and exactly one block is stored per unordered
pair of a symmetric store. When a box is skeletonized, its redundant
rows and columns are dropped from every stored block that touches it
(the solve-phase copies are recorded first by the caller).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelMatrix

Coord = tuple[int, int]
PairKey = tuple[Coord, Coord]


class InteractionStore:
    """Blocks of ``A`` between boxes at one tree level.

    Parameters
    ----------
    kernel:
        Source of unmodified entries, indexed in the kernel's own
        numbering (a distributed rank's kernel numbers its points
        locally); its ``symmetric`` or ``hermitian`` flag selects the
        one-block-per-pair layout.
    active:
        Mapping box -> indices (the kernel's own numbering) currently
        owned by the box.
    store_predicate:
        Distributed mode: decides whether this rank *holds* a pair.
        Schur updates of pairs it rejects are not stored here (the
        holding ranks receive them as logged deltas).
    """

    def __init__(
        self,
        kernel: KernelMatrix,
        active: dict[Coord, np.ndarray],
        *,
        blocks: dict[PairKey, np.ndarray] | None = None,
        store_predicate=None,
    ):
        self.kernel = kernel
        self.active = {b: np.asarray(ix, dtype=np.int64) for b, ix in active.items()}
        #: modified blocks, keyed by :meth:`stored_key`
        self.blocks: dict[PairKey, np.ndarray] = {}
        self.partners: dict[Coord, set[Coord]] = {}
        self.store_predicate = store_predicate
        self._one_sided = bool(kernel.symmetric or kernel.hermitian)
        if blocks:
            for (bi, bj), value in blocks.items():
                self.set(bi, bj, value)

    # ------------------------------------------------------------------
    def boxes(self) -> list[Coord]:
        return list(self.active)

    def active_of(self, box: Coord) -> np.ndarray:
        return self.active[box]

    def nactive(self, box: Coord) -> int:
        return self.active[box].size

    def stored_key(self, bi: Coord, bj: Coord) -> PairKey:
        """The key the block of pair ``(bi, bj)`` is (or would be) stored under."""
        if self._one_sided and bj < bi:
            return bj, bi
        return bi, bj

    def is_modified(self, bi: Coord, bj: Coord) -> bool:
        return self.stored_key(bi, bj) in self.blocks

    def _stored(self, bi: Coord, bj: Coord) -> np.ndarray | None:
        """The stored block of ``(bi, bj)`` in that orientation, or None."""
        if self._one_sided and bj < bi:
            blk = self.blocks.get((bj, bi))
            return None if blk is None else blk.T
        return self.blocks.get((bi, bj))

    # ------------------------------------------------------------------
    def get(self, bi: Coord, bj: Coord) -> np.ndarray:
        """Current value of ``A[active(bi), active(bj)]`` (do not mutate)."""
        blk = self._stored(bi, bj)
        if blk is not None:
            return blk
        return self.kernel.block(self.active[bi], self.active[bj])

    def get_pair(self, bi: Coord, bj: Coord) -> tuple[np.ndarray, np.ndarray]:
        """``(get(bi, bj), get(bj, bi))`` at one kernel evaluation if possible.

        Modified blocks are returned as stored — for a symmetric store
        that is one array and its ``.T`` view, no copy. When neither
        direction is modified and the kernel is ``symmetric``, the
        reverse block is a C-ordered copy of the transpose — the array a
        direct evaluation returns, bit for bit and in memory layout.
        """
        fwd = self._stored(bi, bj)
        rev = self._stored(bj, bi)
        if fwd is None:
            fwd = self.kernel.block(self.active[bi], self.active[bj])
            if rev is None and self.kernel.symmetric:
                return fwd, fwd.T.copy()
        if rev is None:
            rev = self.kernel.block(self.active[bj], self.active[bi])
        return fwd, rev

    def get_writable(self, bi: Coord, bj: Coord) -> np.ndarray:
        """Like :meth:`get` but materialized in the store for in-place update.

        For the non-stored orientation of a symmetric pair this is the
        ``.T`` view of the stored block, so writes land in the store.
        """
        blk = self._stored(bi, bj)
        if blk is None:
            key = self.stored_key(bi, bj)
            blk = self._materialize(key)
            if key != (bi, bj):
                blk = blk.T
        return blk

    def _materialize(self, key: PairKey) -> np.ndarray:
        bi, bj = key
        # Theorem 1 / Remark 2: Schur updates reach only box pairs at
        # Chebyshev distance <= 2, so a farther block stays pure kernel
        d = max(abs(bi[0] - bj[0]), abs(bi[1] - bj[1]))
        if d > 2:
            raise RuntimeError(
                f"locality violation: modifying far-field block {bi} x {bj} (distance {d})"
            )
        blk = self.kernel.block(self.active[bi], self.active[bj]).copy()
        self._put(key, blk)
        return blk

    def set(self, bi: Coord, bj: Coord, value: np.ndarray) -> None:
        """Overwrite a block (value must match the current active shapes).

        The non-stored orientation of a symmetric pair is stored as one
        contiguous copy of ``value.T``.
        """
        expected = (self.active[bi].size, self.active[bj].size)
        if value.shape != expected:
            raise ValueError(f"block {bi} x {bj}: expected shape {expected}, got {value.shape}")
        key = self.stored_key(bi, bj)
        self._put(key, value if key == (bi, bj) else np.ascontiguousarray(value.T))

    def _put(self, key: PairKey, value: np.ndarray) -> None:
        bi, bj = key
        self.blocks[key] = value
        self.partners.setdefault(bi, set()).add(bj)
        self.partners.setdefault(bj, set()).add(bi)

    # ------------------------------------------------------------------
    def subtract_schur(
        self, boxes: list[Coord], delta: np.ndarray, update_log: list | None = None
    ) -> None:
        """``A[C, C] -= delta`` for the cluster ``C`` = the active sets of ``boxes``.

        ``delta`` is indexed by the concatenated *current* active sets of
        ``boxes`` (empty boxes contribute nothing). Every pair among them
        is updated in its stored orientation(s): both for a general
        kernel, the one stored block for a symmetric kernel (``delta`` is
        transpose-symmetric to rounding; the stored block takes its own rows and
        columns of it). A pair the ``store_predicate`` rejects is neither
        stored nor evaluated. When ``update_log`` is a list, each pair's
        update is appended as ``("delta", bi, bj, d)`` in stored
        orientation, rejected pairs included — their holders replay it.
        """
        live = []
        start = 0
        for box in boxes:
            size = self.active[box].size
            if size:
                live.append((box, slice(start, start + size)))
            start += size
        pred = self.store_predicate
        for i, (bi, rows) in enumerate(live):
            for bj, cols in live[i:] if self._one_sided else live:
                if self._one_sided and bj < bi:
                    key, d = (bj, bi), delta[cols, rows]
                else:
                    key, d = (bi, bj), delta[rows, cols]
                if pred is None or pred(*key):
                    blk = self.blocks.get(key)
                    if blk is None:
                        blk = self._materialize(key)
                    blk -= d
                if update_log is not None:
                    update_log.append(("delta", *key, d.copy()))

    def restrict(self, box: Coord, keep_positions: np.ndarray) -> None:
        """Shrink ``active(box)`` to ``active(box)[keep_positions]``.

        Drops the complementary rows/columns from every stored block
        touching ``box`` — one array per partner in a symmetric store.
        Called right after the box is skeletonized (``keep_positions``
        are the skeleton positions within the old active set).
        """
        keep = np.asarray(keep_positions, dtype=np.int64)
        self.active[box] = self.active[box][keep]
        blocks = self.blocks
        # fancy indexing and ``take`` return fresh C-ordered blocks
        for other in self.partners.get(box, ()):  # includes box itself if stored
            if other == box:
                blocks[box, box] = blocks[box, box][np.ix_(keep, keep)]
                continue
            blk = blocks.get((box, other))
            if blk is not None:
                blocks[box, other] = blk.take(keep, axis=0)
            blk = blocks.get((other, box))
            if blk is not None:
                blocks[other, box] = blk.take(keep, axis=1)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes held in modified blocks (memory-footprint accounting)."""
        return sum(b.nbytes for b in self.blocks.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InteractionStore(boxes={len(self.active)}, "
            f"modified_blocks={len(self.blocks)}, bytes={self.memory_bytes()})"
        )
