"""Planar geometry: domains, point sets, and Morton ordering."""

from repro.geometry.domain import Square
from repro.geometry.points import (
    uniform_grid,
    random_points,
    clustered_points,
)
from repro.geometry.morton import morton_encode, morton_decode, morton_argsort

__all__ = [
    "Square",
    "uniform_grid",
    "random_points",
    "clustered_points",
    "morton_encode",
    "morton_decode",
    "morton_argsort",
]
