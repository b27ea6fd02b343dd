"""Tests for Morton codes, including hypothesis round-trip properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.morton import morton_argsort, morton_decode, morton_encode

COORD = st.integers(min_value=0, max_value=2**24 - 1)


@given(COORD, COORD)
def test_roundtrip_scalar(ix, iy):
    assert morton_decode(morton_encode(ix, iy)) == (ix, iy)


@given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=50))
def test_roundtrip_vectorized(coords):
    ix = np.array([c[0] for c in coords])
    iy = np.array([c[1] for c in coords])
    dx, dy = morton_decode(morton_encode(ix, iy))
    assert np.array_equal(dx, ix)
    assert np.array_equal(dy, iy)


@given(COORD, COORD, COORD, COORD)
def test_injective(ax, ay, bx, by):
    if (ax, ay) != (bx, by):
        assert morton_encode(ax, ay) != morton_encode(bx, by)


def test_known_small_codes():
    # x bits land in even positions: (1,0) -> 1, (0,1) -> 2, (1,1) -> 3
    assert morton_encode(0, 0) == 0
    assert morton_encode(1, 0) == 1
    assert morton_encode(0, 1) == 2
    assert morton_encode(1, 1) == 3
    assert morton_encode(2, 0) == 4


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        morton_encode(2**24, 0)


def _interleave_reference(ix, iy):
    """The definition, bit by bit."""
    return sum(
        (((ix >> b) & 1) << (2 * b)) | (((iy >> b) & 1) << (2 * b + 1)) for b in range(24)
    )


@given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=50))
def test_scalar_path_equals_array_path(coords):
    """Python ints take the pure-integer path, arrays the vectorized
    one: same codes element for element, and the scalar result is a
    Python ``int`` (not a 0-d array or a numpy scalar)."""
    ix = np.array([c[0] for c in coords])
    iy = np.array([c[1] for c in coords])
    codes = morton_encode(ix, iy)
    for (x, y), code in zip(coords, codes):
        scalar = morton_encode(x, y)
        assert type(scalar) is int
        assert scalar == int(code) == _interleave_reference(x, y)
        decoded = morton_decode(scalar)
        assert decoded == (x, y) and all(type(v) is int for v in decoded)
        # numpy integer scalars are scalars too
        assert morton_encode(np.int64(x), np.int64(y)) == scalar


@pytest.mark.parametrize("bad", [-1, -(2**24), 2**24, 2**24 + 5, 2**63])
def test_scalar_out_of_range_is_a_value_error(bad):
    """Negative and too-wide scalars raise ``ValueError`` on either
    axis (a negative int used to escape as numpy's ``OverflowError``)."""
    with pytest.raises(ValueError):
        morton_encode(bad, 0)
    with pytest.raises(ValueError):
        morton_encode(0, bad)
    with pytest.raises(ValueError):
        morton_decode(-1)
    with pytest.raises(ValueError):
        morton_decode(2**48)


def test_argsort_produces_z_order():
    ii, jj = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    ix, iy = ii.ravel(), jj.ravel()
    order = morton_argsort(ix, iy)
    first_four = [(int(ix[k]), int(iy[k])) for k in order[:4]]
    assert first_four == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_locality_of_z_order():
    """Consecutive Morton codes in a quad share the same 2x2 block."""
    for base_x in (0, 2, 4):
        codes = [morton_encode(base_x + dx, dy) for dx in (0, 1) for dy in (0, 1)]
        assert max(codes) - min(codes) == 3
