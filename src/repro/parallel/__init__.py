"""Distributed-memory parallel RS-S factorization (Sec. III of the paper).

The leaf grid is block-partitioned over a ``sqrt(p) x sqrt(p)`` process
grid aligned with the quadtree. At every level each rank factors its
*interior* boxes with zero communication, then *boundary* boxes run in
the four-color loop with Schur-update exchange restricted to adjacent
ranks; level transitions regroup skeletons under parents and reduce the
active rank set 4-to-1 once ranks are down to a 2x2 block of boxes.

Entry points:

* :func:`parallel_srs_factor` — distributed factorization; returns a
  :class:`ParallelFactorization` whose ``solve`` runs the distributed
  upward/downward sweeps.
* :func:`repro.parallel.shared.shared_memory_factor` — the
  box-coloring shared-memory comparator of Table VI. It is a
  measurement the paper's comparison needs, not an execution of
  ``repro.solve``: the Table VI runner calls it directly.
"""

from repro.parallel.driver import ParallelFactorization, parallel_srs_factor
from repro.parallel.ownership import LevelLayout, max_ranks_for_tree
from repro.parallel.shared import shared_memory_factor, SharedMemoryResult

__all__ = [
    "parallel_srs_factor",
    "ParallelFactorization",
    "LevelLayout",
    "max_ranks_for_tree",
    "shared_memory_factor",
    "SharedMemoryResult",
]
