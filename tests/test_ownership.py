"""Tests for the level layouts: ownership, boundaries, reduction schedule."""

import collections
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import repro.geometry.morton as morton
from repro.parallel.ownership import LevelLayout, max_ranks_for_tree


def test_max_ranks():
    assert max_ranks_for_tree(3) == 16
    assert max_ranks_for_tree(2) == 4
    assert max_ranks_for_tree(1) == 1


def test_active_schedule_p16():
    # leaf deep: all 16 ranks; coarse levels reduce 4-to-1
    assert LevelLayout(4, 16).active == 16
    assert LevelLayout(3, 16).active == 16
    assert LevelLayout(2, 16).active == 4
    assert LevelLayout(1, 16).active == 1


def test_every_active_rank_owns_at_least_2x2():
    for p in (1, 4, 16, 64):
        for level in range(1, 6):
            if p > max_ranks_for_tree(level + 1):
                continue
            lay = LevelLayout(level, p)
            assert lay.region_side >= 2 or lay.active == 1
            if lay.active >= 1:
                assert lay.region_side >= 2 or level == 1


def test_owned_boxes_partition_grid():
    lay = LevelLayout(3, 16)
    seen = set()
    for r in lay.active_ranks():
        boxes = lay.owned_boxes(r)
        assert len(boxes) == lay.region_side**2
        for b in boxes:
            assert b not in seen
            assert lay.owner(b) == r
            seen.add(b)
    assert len(seen) == lay.nside**2


def test_inactive_rank_rejected():
    lay = LevelLayout(2, 16)  # active = 4, stride = 4
    assert lay.is_active(0) and lay.is_active(4)
    assert not lay.is_active(1)
    with pytest.raises(ValueError):
        lay.rank_coords(1)


def test_region_distance():
    lay = LevelLayout(3, 16)  # 8x8 boxes, 4x4 ranks, regions 2x2
    # rank 0 owns boxes (0..1, 0..1)
    assert lay.region_distance((0, 0), 0) == 0
    assert lay.region_distance((2, 0), 0) == 1
    assert lay.region_distance((4, 3), 0) == 3


def test_boundary_classification():
    lay = LevelLayout(3, 4)  # 8x8 boxes, 2x2 ranks, regions 4x4
    r = 0  # owns (0..3, 0..3)
    assert not lay.is_boundary((0, 0), r)  # domain corner, all nbrs local
    assert not lay.is_boundary((1, 1), r)
    assert lay.is_boundary((3, 0), r)
    assert lay.is_boundary((3, 3), r)
    assert lay.is_boundary((0, 3), r)


def test_interior_dominates_for_large_regions():
    lay = LevelLayout(5, 4)  # 32x32 boxes, regions 16x16
    r = 0
    boxes = lay.owned_boxes(r)
    boundary = [b for b in boxes if lay.is_boundary(b, r)]
    assert len(boundary) < len(boxes) / 4


def test_neighbor_ranks_adjacency():
    lay = LevelLayout(3, 16)
    for r in lay.active_ranks():
        for w in lay.neighbor_ranks(r):
            assert r in lay.neighbor_ranks(w)
            assert w != r
    counts = sorted(len(lay.neighbor_ranks(r)) for r in lay.active_ranks())
    assert counts[0] == 3 and counts[-1] == 8  # grid corners have 3, interior ranks 8


def test_colors_differ_between_neighbors():
    for p in (4, 16, 64):
        lay = LevelLayout(4, p)
        for r in lay.active_ranks():
            for w in lay.neighbor_ranks(r):
                assert lay.color(r) != lay.color(w)


def test_strip_boxes_within_width():
    lay = LevelLayout(3, 16)
    r, w = 0, lay.neighbor_ranks(0)[0]
    for b in lay.strip_boxes(r, w, 2):
        assert lay.owner(b) == r
        assert lay.region_distance(b, w) <= 2


def test_halo_boxes_exclude_region():
    lay = LevelLayout(3, 16)
    halo = lay.halo_boxes(0, 2)
    own = set(lay.owned_boxes(0))
    assert own.isdisjoint(halo)
    for b in halo:
        assert lay.region_distance(b, 0) <= 2


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 4, 16]), st.integers(min_value=2, max_value=5))
def test_owner_consistent_with_owned_boxes(p, level):
    if p > max_ranks_for_tree(level):
        return
    lay = LevelLayout(level, p)
    for r in lay.active_ranks():
        for b in lay.owned_boxes(r):
            assert lay.owner(b) == r


def test_same_color_boundary_boxes_far_apart():
    """Sec. III-B: same-color boundary boxes on different ranks have
    Chebyshev distance > 2 when every rank owns >= 2x2 boxes."""
    lay = LevelLayout(4, 16)  # 16x16 boxes, regions 4x4
    by_color: dict[int, list] = {}
    for r in lay.active_ranks():
        c = lay.color(r)
        for b in lay.owned_boxes(r):
            if lay.is_boundary(b, r):
                by_color.setdefault(c, []).append((r, b))
    for c, items in by_color.items():
        for r1, b1 in items:
            for r2, b2 in items:
                if r1 != r2:
                    d = max(abs(b1[0] - b2[0]), abs(b1[1] - b2[1]))
                    assert d > 2, (b1, b2, c)


# ----------------------------------------------------------------------
# the O(1) lookups against brute force, and off numpy
# ----------------------------------------------------------------------
LAYOUTS = [(level, p) for level in range(1, 7) for p in (1, 4, 16, 64)]


def _deinterleave(code):
    """(x, y) with x on the even bits of ``code``, bit by bit."""
    x = sum(((code >> (2 * b)) & 1) << b for b in range(12))
    y = sum(((code >> (2 * b + 1)) & 1) << b for b in range(12))
    return x, y


@pytest.mark.parametrize("level, p", LAYOUTS)
def test_lookups_agree_with_brute_force(level, p):
    lay = LevelLayout(level, p)
    assert lay.active == min(p, 4 ** (level - 1))
    assert lay.stride * lay.active == p
    assert lay.grid_side**2 == lay.active
    assert lay.region_side * lay.grid_side == lay.nside == 2**level
    assert lay.colors_in_use() == list(range(min(lay.active, 4)))  # one rank: one colour
    ranks = lay.active_ranks()
    owned = {r: set(lay.owned_boxes(r)) for r in ranks}
    xs = {r: {qx for qx, _ in owned[r]} for r in ranks}
    ys = {r: {qy for _, qy in owned[r]} for r in ranks}
    coords = {r: _deinterleave(r // lay.stride) for r in ranks}
    for r in ranks:
        assert lay.rank_coords(r) == coords[r]
        assert lay.color(r) == coords[r][0] % 2 + 2 * (coords[r][1] % 2)
        adjacent = sorted(
            w
            for w in ranks
            if w != r
            and max(abs(coords[w][0] - coords[r][0]), abs(coords[w][1] - coords[r][1])) == 1
        )
        assert lay.neighbor_ranks(r) == adjacent
    # the 4-to-1 reduction after this level: each rank's boxes go to the
    # next level's owner of their parents, the three retirees of a leader
    nxt = LevelLayout(level - 1, p) if level > 1 else None
    assert lay.reduces() == (nxt is not None and nxt.active < lay.active)
    if lay.reduces():
        for r in ranks:
            leader = lay.reduction_leader(r)
            assert (leader == r) == nxt.is_active(r)
            assert {(bx >> 1, by >> 1) for bx, by in owned[r]} <= set(nxt.owned_boxes(leader))
        for leader in nxt.active_ranks():
            assert sorted([leader, *lay.reduction_retirees(leader)]) == [
                r for r in ranks if lay.reduction_leader(r) == leader
            ]
    for box in itertools.product(range(lay.nside), repeat=2):
        (holder,) = [r for r in ranks if box in owned[r]]
        assert lay.owner(box) == holder
        neighbors = [
            (box[0] + dx, box[1] + dy)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if (dx or dy)
            and 0 <= box[0] + dx < lay.nside
            and 0 <= box[1] + dy < lay.nside
        ]
        for r in ranks if level <= 4 else (holder,):
            assert lay.is_boundary(box, r) == any(q not in owned[r] for q in neighbors)
            # a region is a product of two coordinate sets, so the
            # Chebyshev distance to it splits by axis
            assert lay.region_distance(box, r) == max(
                min(abs(box[0] - qx) for qx in xs[r]),
                min(abs(box[1] - qy) for qy in ys[r]),
            )


@pytest.mark.parametrize("p", [0, -4, 2, 3, 8, 12, 32, 36])
def test_p_must_be_a_power_of_two_squared(p):
    with pytest.raises(ValueError, match="power-of-two squared"):
        LevelLayout(3, p)


def test_per_box_lookups_never_reach_numpy(monkeypatch):
    """owner / is_boundary / region_distance / color run once or more
    per box pair a rank touches; they must stay integer arithmetic."""

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"per-box ownership lookup reached numpy.{name}")

    monkeypatch.setattr(morton, "np", NoNumpy())
    for level, p in LAYOUTS:
        lay = LevelLayout(level, p)
        for r in lay.active_ranks():
            assert isinstance(lay.color(r), int)
            for box in ((0, 0), (lay.nside - 1, 0), (lay.nside // 2, lay.nside - 1)):
                assert isinstance(lay.owner(box), int)
                assert isinstance(lay.region_distance(box, r), int)
                assert lay.is_boundary(box, r) in (True, False)


@pytest.mark.parametrize("p", [1, 4, 16, 64, 256])
def test_region_lookups_decode_each_rank_once(p, monkeypatch):
    """region_bounds / region_distance / is_boundary equal their
    definition from the rank's decoded Morton index, at every level and
    for every active rank, and a layout decodes a rank at most once."""
    import repro.parallel.ownership as ownership

    decoded = collections.Counter()

    def counting_decode(code):
        decoded[code] += 1
        return morton.morton_decode(code)

    monkeypatch.setattr(ownership, "morton_decode", counting_decode)
    for level in range(1, 7):
        lay = LevelLayout(level, p)
        decoded.clear()
        n, w = lay.nside, lay.region_side
        for r in lay.active_ranks():
            ox, oy = _deinterleave(r // lay.stride)
            x0, y0, x1, y1 = ox * w, oy * w, (ox + 1) * w, (oy + 1) * w
            ring = itertools.product(
                range(max(x0 - 2, 0), min(x1 + 2, n)), range(max(y0 - 2, 0), min(y1 + 2, n))
            )
            for box in [*ring, (0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1)]:
                for _ in range(2):
                    assert lay.region_bounds(r) == (x0, y0, x1, y1)
                    assert lay.region_distance(box, r) == max(
                        x0 - box[0], box[0] - (x1 - 1), y0 - box[1], box[1] - (y1 - 1), 0
                    )
                    leaves = any(
                        not (x0 <= box[0] + dx < x1 and y0 <= box[1] + dy < y1)
                        for dx in (-1, 0, 1)
                        for dy in (-1, 0, 1)
                        if 0 <= box[0] + dx < n and 0 <= box[1] + dy < n
                    )
                    assert lay.is_boundary(box, r) == leaves
        assert decoded == collections.Counter(range(lay.active)), (level, p)
