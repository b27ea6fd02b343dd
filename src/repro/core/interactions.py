"""Interaction store: active index sets and modified near-field blocks.

The factorization maintains, per tree level, the *active* indices owned
by every box (leaf: points inside it; coarser levels: the skeletons of
its children) and the matrix blocks between pairs of boxes. Blocks that
have been touched by a Schur-complement update are stored densely
("modified"); everything else is generated on demand from the kernel —
legitimate because Theorem 1/2 guarantee untouched blocks are pure
kernel evaluations at every level.

Invariant: a stored block always covers exactly the *current* active
sets of its box pair. When a box is skeletonized, its redundant rows
and columns are dropped from every stored block that touches it (the
solve-phase copies are recorded first by the caller).
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
        Source of unmodified entries (global point indexing).
    active:
        Mapping box -> global indices currently owned by the box.
    max_modified_distance:
        Debug guard (Remark 2 / Theorem 1): creating a modified block
        between boxes farther apart than this Chebyshev distance raises.
    """

    def __init__(
        self,
        kernel: KernelMatrix,
        active: dict[Coord, np.ndarray],
        *,
        blocks: dict[PairKey, np.ndarray] | None = None,
        max_modified_distance: int | None = 2,
        store_predicate=None,
    ):
        self.kernel = kernel
        self.active = {b: np.asarray(ix, dtype=np.int64) for b, ix in active.items()}
        self.blocks: dict[PairKey, np.ndarray] = {}
        self.partners: dict[Coord, set[Coord]] = {}
        self.max_modified_distance = max_modified_distance
        #: distributed mode: predicate deciding whether this rank *holds*
        #: a block. Updates to non-held pairs are discarded locally (the
        #: owning ranks receive them as explicit delta messages instead).
        self.store_predicate = store_predicate
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

    def is_modified(self, bi: Coord, bj: Coord) -> bool:
        return (bi, bj) in self.blocks

    # ------------------------------------------------------------------
    def get(self, bi: Coord, bj: Coord) -> np.ndarray:
        """Current value of ``A[active(bi), active(bj)]`` (do not mutate)."""
        key = (bi, bj)
        blk = self.blocks.get(key)
        if blk is not None:
            return blk
        return self.kernel.block(self.active[bi], self.active[bj])

    def get_pair(self, bi: Coord, bj: Coord) -> tuple[np.ndarray, np.ndarray]:
        """``(get(bi, bj), get(bj, bi))`` at one kernel evaluation if possible.

        Modified blocks are returned as stored. When neither direction
        is modified and the kernel is ``symmetric``, the reverse block
        is a C-ordered copy of the transpose — the array a direct
        evaluation returns, bit for bit and in memory layout.
        """
        fwd = self.blocks.get((bi, bj))
        rev = self.blocks.get((bj, bi))
        if fwd is None:
            fwd = self.kernel.block(self.active[bi], self.active[bj])
            if rev is None and self.kernel.symmetric:
                return fwd, fwd.T.copy()
        if rev is None:
            rev = self.kernel.block(self.active[bj], self.active[bi])
        return fwd, rev

    def get_writable(self, bi: Coord, bj: Coord) -> np.ndarray:
        """Like :meth:`get` but materialized in the store for in-place update.

        When a ``store_predicate`` is set and rejects the pair, a
        throwaway scratch block is returned instead: this rank is not a
        holder of the pair, so the update must not persist locally (it
        reaches the holders as a delta message).
        """
        key = (bi, bj)
        if self.store_predicate is not None and not self.store_predicate(bi, bj):
            return np.zeros(
                (self.active[bi].size, self.active[bj].size), dtype=self.kernel.dtype
            )
        blk = self.blocks.get(key)
        if blk is None:
            if self.max_modified_distance is not None:
                d = max(abs(bi[0] - bj[0]), abs(bi[1] - bj[1]))
                if d > self.max_modified_distance:
                    raise RuntimeError(
                        f"locality violation: modifying far-field block {bi} x {bj} (distance {d})"
                    )
            blk = self.kernel.block(self.active[bi], self.active[bj]).copy()
            self.blocks[key] = blk
            self.partners.setdefault(bi, set()).add(bj)
            self.partners.setdefault(bj, set()).add(bi)
        return blk

    def set(self, bi: Coord, bj: Coord, value: np.ndarray) -> None:
        """Overwrite a block (value must match the current active shapes)."""
        expected = (self.active[bi].size, self.active[bj].size)
        if value.shape != expected:
            raise ValueError(f"block {bi} x {bj}: expected shape {expected}, got {value.shape}")
        self.blocks[(bi, bj)] = value
        self.partners.setdefault(bi, set()).add(bj)
        self.partners.setdefault(bj, set()).add(bi)

    # ------------------------------------------------------------------
    def restrict(self, box: Coord, keep_positions: np.ndarray) -> None:
        """Shrink ``active(box)`` to ``active(box)[keep_positions]``.

        Drops the complementary rows/columns from every stored block
        touching ``box``. Called right after the box is skeletonized
        (``keep_positions`` are the skeleton positions within the old
        active set).
        """
        keep_positions = np.asarray(keep_positions, dtype=np.int64)
        self.active[box] = self.active[box][keep_positions]
        for other in self.partners.get(box, ()):  # includes box itself if stored
            key_rc = (box, other)
            if key_rc in self.blocks:
                if other == box:
                    self.blocks[key_rc] = np.ascontiguousarray(
                        self.blocks[key_rc][np.ix_(keep_positions, keep_positions)]
                    )
                else:
                    self.blocks[key_rc] = np.ascontiguousarray(self.blocks[key_rc][keep_positions, :])
            key_cr = (other, box)
            if other != box and key_cr in self.blocks:
                self.blocks[key_cr] = np.ascontiguousarray(self.blocks[key_cr][:, keep_positions])

    def drop_box(self, box: Coord) -> None:
        """Remove a box and all its blocks (used after full elimination)."""
        for other in self.partners.pop(box, set()):
            self.blocks.pop((box, other), None)
            self.blocks.pop((other, box), None)
            if other != box and other in self.partners:
                self.partners[other].discard(box)
        self.active.pop(box, None)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes held in modified blocks (memory-footprint accounting)."""
        return sum(b.nbytes for b in self.blocks.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InteractionStore(boxes={len(self.active)}, "
            f"modified_blocks={len(self.blocks)}, bytes={self.memory_bytes()})"
        )
