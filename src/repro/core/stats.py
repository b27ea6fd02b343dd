"""Factorization statistics: per-level skeleton ranks and memory.

Figure 9 of the paper reports the average skeleton rank per tree level
for the Laplace and Helmholtz kernels; :class:`RankStats` reads the
same quantity off a factorization's records.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.skel import BoxRecord


@dataclass
class RankStats:
    """Per-level rank/occupancy statistics of an RS-S factorization."""

    #: level -> list of skeleton sizes of boxes processed at that level
    ranks: dict[int, list[int]] = field(default_factory=dict)
    #: level -> list of box sizes (active counts) before compression
    box_sizes: dict[int, list[int]] = field(default_factory=dict)
    #: :meth:`table`, computed on first read (every solve report reads it)
    _table: list | None = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, records: Iterable[BoxRecord]) -> RankStats:
        """The statistics of ``records``, in record order.

        A box's size before compression is its skeleton plus the
        indices it eliminated.
        """
        stats = cls()
        for rec in records:
            stats.ranks.setdefault(rec.level, []).append(rec.rank)
            stats.box_sizes.setdefault(rec.level, []).append(rec.rank + rec.redundant.size)
        return stats

    def average_rank(self, level: int) -> float:
        vals = self.ranks.get(level)
        return float(np.mean(vals)) if vals else 0.0

    def max_rank(self, level: int) -> int:
        vals = self.ranks.get(level)
        return int(np.max(vals)) if vals else 0

    def levels(self) -> list[int]:
        return sorted(self.ranks)

    def table(self) -> list[tuple[int, float, int, float]]:
        """Rows ``(level, avg_rank, max_rank, avg_box_size)`` (Fig. 9 data)."""
        if self._table is None:
            self._table = [
                (
                    lvl,
                    self.average_rank(lvl),
                    self.max_rank(lvl),
                    float(np.mean(self.box_sizes[lvl])),
                )
                for lvl in self.levels()
            ]
        return list(self._table)
