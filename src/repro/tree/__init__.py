"""Hierarchical domain decomposition (quadtrees) for planar point sets."""

from repro.tree.quadtree import QuadTree

__all__ = ["QuadTree"]
