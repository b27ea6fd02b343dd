"""Morton (Z-order) codes for 2D grid coordinates.

Used to order boxes within a tree level so that spatially nearby boxes
receive nearby linear indices — the traversal order of the factorization
and the block partition across ranks both respect quadtree locality.

Two paths, one contract: Python ``int`` arguments are interleaved with
integer arithmetic alone (about a microsecond — box ownership asks for
one code per box pair touched, see :mod:`repro.parallel.ownership`);
arrays go through the vectorized bit loop.
"""

from __future__ import annotations

import numpy as np

_MAX_BITS = 24  # supports grids up to 2^24 per side
_LIMIT = 1 << _MAX_BITS


def _spread(v: int) -> int:
    """Move bit ``b`` of a (< 2^32) Python int to position ``2 b``."""
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


def _compact(v: int) -> int:
    """Inverse of :func:`_spread`: gather the even-position bits."""
    v &= 0x5555555555555555
    v = (v | (v >> 1)) & 0x3333333333333333
    v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v | (v >> 8)) & 0x0000FFFF0000FFFF
    return (v | (v >> 16)) & 0x00000000FFFFFFFF


def morton_encode(ix: np.ndarray | int, iy: np.ndarray | int) -> np.ndarray | int:
    """Interleave the bits of ``ix`` (even positions) and ``iy`` (odd)."""
    if isinstance(ix, int) and isinstance(iy, int):
        if not (0 <= ix < _LIMIT and 0 <= iy < _LIMIT):
            raise ValueError(f"coordinates must lie in [0, 2^{_MAX_BITS})")
        return _spread(ix) | (_spread(iy) << 1)
    if np.isscalar(ix) and np.isscalar(iy):  # numpy integer scalars
        return morton_encode(int(ix), int(iy))
    x = np.asarray(ix, dtype=np.uint64)
    y = np.asarray(iy, dtype=np.uint64)
    if np.any(x >> _MAX_BITS) or np.any(y >> _MAX_BITS):
        raise ValueError(f"coordinates exceed {_MAX_BITS} bits")
    code = np.zeros_like(x, dtype=np.uint64)
    for b in range(_MAX_BITS):
        bit = np.uint64(1) << np.uint64(b)
        code |= ((x & bit) << np.uint64(b)) | ((y & bit) << np.uint64(b + 1))
    return code


def morton_decode(code: np.ndarray | int) -> tuple:
    """Inverse of :func:`morton_encode`; returns ``(ix, iy)``."""
    if isinstance(code, int):
        if not (0 <= code < _LIMIT * _LIMIT):
            raise ValueError(f"code must lie in [0, 2^{2 * _MAX_BITS})")
        return _compact(code), _compact(code >> 1)
    if np.isscalar(code):  # numpy integer scalar
        return morton_decode(int(code))
    c = np.asarray(code, dtype=np.uint64)
    ix = np.zeros_like(c, dtype=np.uint64)
    iy = np.zeros_like(c, dtype=np.uint64)
    for b in range(_MAX_BITS):
        ix |= ((c >> np.uint64(2 * b)) & np.uint64(1)) << np.uint64(b)
        iy |= ((c >> np.uint64(2 * b + 1)) & np.uint64(1)) << np.uint64(b)
    return ix.astype(np.int64), iy.astype(np.int64)


def morton_argsort(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Permutation ordering grid coordinates along the Z-curve."""
    return np.argsort(morton_encode(np.asarray(ix), np.asarray(iy)), kind="stable")
