"""Strong recursive skeletonization factorization (RS-S).

This package implements the paper's core algorithm (Secs. II D–F):

* :func:`srs_factor` — multilevel approximate factorization of the
  dense kernel matrix ``A`` (Algorithm 1);
* :class:`SRSFactorization` — the factored object, whose
  :meth:`~repro.core.factorization.SRSFactorization.solve` applies the
  compressed inverse in O(N);
* :class:`SRSOptions` — compression tolerance, proxy geometry, leaf
  size, ID method.
"""

from repro.core.options import SRSOptions
from repro.core.factorization import SRSFactorization, srs_factor
from repro.core.interactions import InteractionStore
from repro.core.proxy import proxy_circle, proxy_point_count
from repro.core.skel import BoxRecord
from repro.core.stats import RankStats

__all__ = [
    "SRSOptions",
    "SRSFactorization",
    "srs_factor",
    "InteractionStore",
    "proxy_circle",
    "proxy_point_count",
    "BoxRecord",
    "RankStats",
]
