"""Box ownership, interior/boundary classification, and the level schedule.

Rank regions are square blocks of boxes aligned with the quadtree. At
tree level ``ell`` the number of *active* ranks is
``A(ell) = min(p, 4^(ell-1))`` — every active rank owns at least a
2x2 block of boxes at every level (the condition under which same-color
boundary boxes on different ranks are more than distance 2 apart,
Sec. III-B), and the rank set shrinks 4-to-1 entering each coarse level
(Sec. III-C: "the number of processes involved in the new level may
also decrease"). Active rank ids follow Morton order, so the reduction
leader of a sibling group is the rank with the low two Morton bits of
its group index cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.geometry.morton import morton_decode, morton_encode

Coord = tuple[int, int]


def max_ranks_for_tree(nlevels: int) -> int:
    """Largest valid ``p`` for a tree with leaves at ``nlevels``.

    Every rank must own at least a 2x2 block of leaves: ``p <= 4^(L-1)``.
    """
    return 4 ** max(nlevels - 1, 0)


@dataclass(frozen=True)
class LevelLayout:
    """Ownership layout of one tree level for ``p`` total ranks.

    Every lookup a rank makes per box or per box pair — owner, region
    distance, boundary test, colour — is integer arithmetic on fields
    computed once here; none of them reaches numpy. A rank's region
    bounds are decoded from its Morton index at its first query and
    kept on the instance.

    Attributes
    ----------
    level:
        Tree level (root = 0).
    p:
        Total ranks in the communicator: a power-of-two squared.
    nside:
        Boxes per side of the level's grid, ``2**level``.
    active:
        Number of active ranks at this level, ``min(p, 4**(level-1))``.
    stride:
        ``p // active`` — rank ``r`` is active iff ``r % stride == 0``.
    grid_side:
        Side of the active process grid.
    region_side:
        Boxes per side owned by each active rank.
    """

    level: int
    p: int
    nside: int = field(init=False, compare=False)
    active: int = field(init=False, compare=False)
    stride: int = field(init=False, compare=False)
    grid_side: int = field(init=False, compare=False)
    region_side: int = field(init=False, compare=False)
    _bounds: dict[int, tuple[int, int, int, int]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        level, p = self.level, self.p
        if level < 1:
            raise ValueError(f"layouts exist for levels >= 1, got {level}")
        side = math.isqrt(max(p, 0))
        if p < 1 or side * side != p or side & (side - 1):
            raise ValueError(f"p must be a power-of-two squared (1, 4, 16, ...), got {p}")
        active = min(p, 4 ** (level - 1))
        grid_side = math.isqrt(active)
        for name, value in (
            ("nside", 1 << level),
            ("active", active),
            ("stride", p // active),
            ("grid_side", grid_side),
            ("region_side", (1 << level) // grid_side),
        ):
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def is_active(self, rank: int) -> bool:
        return rank % self.stride == 0

    def active_ranks(self) -> list[int]:
        return [g * self.stride for g in range(self.active)]

    def rank_coords(self, rank: int) -> Coord:
        """Coarse grid coordinates of an active rank."""
        if not self.is_active(rank):
            raise ValueError(f"rank {rank} is not active at level {self.level}")
        return morton_decode(rank // self.stride)

    def owner(self, box: Coord) -> int:
        """Active rank owning ``box`` at this level."""
        w = self.region_side
        return morton_encode(box[0] // w, box[1] // w) * self.stride

    def owned_boxes(self, rank: int) -> list[Coord]:
        """Boxes owned by ``rank``, Morton order within the region."""
        ox, oy = self.rank_coords(rank)
        w = self.region_side
        coords = [
            (ox * w + dx, oy * w + dy) for dx in range(w) for dy in range(w)
        ]
        coords.sort(key=lambda c: morton_encode(c[0], c[1]))
        return coords

    def region_bounds(self, rank: int) -> tuple[int, int, int, int]:
        """``(x0, y0, x1, y1)`` box-coordinate bounds (inclusive-exclusive)."""
        bounds = self._bounds.get(rank)
        if bounds is None:
            ox, oy = self.rank_coords(rank)
            w = self.region_side
            bounds = self._bounds[rank] = (ox * w, oy * w, (ox + 1) * w, (oy + 1) * w)
        return bounds

    def region_distance(self, box: Coord, rank: int) -> int:
        """Chebyshev distance from ``box`` to ``rank``'s region (0 if inside)."""
        x0, y0, x1, y1 = self.region_bounds(rank)
        dx = max(x0 - box[0], 0, box[0] - (x1 - 1))
        dy = max(y0 - box[1], 0, box[1] - (y1 - 1))
        return max(dx, dy)

    def is_boundary(self, box: Coord, rank: int) -> bool:
        """True when some neighbor of ``box`` is owned by another rank.

        The neighbors of ``box`` fill its 3x3 block clipped to the
        domain; one of them belongs to another rank exactly when that
        block leaves ``rank``'s region.
        """
        x0, y0, x1, y1 = self.region_bounds(rank)
        last = self.nside - 1
        return (
            max(box[0] - 1, 0) < x0
            or min(box[0] + 1, last) >= x1
            or max(box[1] - 1, 0) < y0
            or min(box[1] + 1, last) >= y1
        )

    def neighbor_ranks(self, rank: int) -> list[int]:
        """Active ranks whose regions are adjacent to ``rank``'s."""
        ox, oy = self.rank_coords(rank)
        side = self.grid_side
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                qx, qy = ox + dx, oy + dy
                if 0 <= qx < side and 0 <= qy < side:
                    out.append(morton_encode(qx, qy) * self.stride)
        return sorted(out)

    def color(self, rank: int) -> int:
        """Parity 4-coloring of the active process grid (Fig. 5)."""
        ox, oy = self.rank_coords(rank)
        return (ox % 2) + 2 * (oy % 2)

    def colors_in_use(self) -> list[int]:
        """Every parity colour once the active grid is 2x2 or larger."""
        return [0, 1, 2, 3] if self.grid_side > 1 else [0]

    # -- the 4-to-1 reduction after this level (Sec. III-C) --------------
    def reduces(self) -> bool:
        """Whether the next level has a quarter of this level's active ranks."""
        return self.level > 1 and 4 ** (self.level - 2) < self.p

    def reduction_leader(self, rank: int) -> int:
        """Where ``rank`` goes when :meth:`reduces`: a leader stays, others retire to it."""
        return rank - rank % (4 * self.stride)

    def reduction_retirees(self, leader: int) -> list[int]:
        """The three ranks ``leader`` absorbs when :meth:`reduces`."""
        return [leader + k * self.stride for k in (1, 2, 3)]

    def halo_boxes(self, rank: int, width: int) -> list[Coord]:
        """Boxes within Chebyshev distance ``width`` of the region (outside it)."""
        x0, y0, x1, y1 = self.region_bounds(rank)
        n = self.nside
        out = []
        for bx in range(max(0, x0 - width), min(n, x1 + width)):
            for by in range(max(0, y0 - width), min(n, y1 + width)):
                if x0 <= bx < x1 and y0 <= by < y1:
                    continue
                out.append((bx, by))
        return out

    def strip_boxes(self, rank: int, other: int, width: int) -> list[Coord]:
        """Boxes owned by ``rank`` within distance ``width`` of ``other``'s region."""
        return [
            b for b in self.owned_boxes(rank) if self.region_distance(b, other) <= width
        ]
