"""Numerical solver-health telemetry.

Spans say where time went; this module says whether the *numerics* are
drifting. Two feeds:

* every finished factorization — sequential or distributed, in
  whichever mode — folds its per-box ranks into the monitor once, in
  the process that asked for it (:meth:`HealthMonitor.record_stats`)
  — per-level skeleton-rank and compression-ratio histograms catch rank
  growth long before a benchmark notices;
* the facade reports every Krylov outcome through
  :meth:`HealthMonitor.observe_krylov` — iteration counts, convergence,
  refinement stalls, and final relative residuals per method.

The process-wide :data:`health` monitor records into the
``repro_health_*`` metric families, which the ``/stats`` + ``/debug``
health tables read back (:meth:`HealthMonitor.snapshot`);
:func:`solve_health` builds the per-solve :class:`HealthReport` the
facade stamps onto :class:`~repro.api.report.SolveReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import COUNT_BUCKETS, REGISTRY, MetricsRegistry

#: buckets for skeleton-rank / box-size compression ratios (rank/size)
RATIO_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
#: log-spaced buckets for final relative residuals
RELRES_BUCKETS = (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)


@dataclass(frozen=True)
class HealthReport:
    """Per-solve numerical summary stamped onto ``SolveReport.health``."""

    #: per-level rows: level, boxes, avg_rank, max_rank, avg_compression
    levels: tuple[dict[str, Any], ...] = ()
    iterations: int = 0
    converged: bool = True
    stalled: bool = False
    final_relres: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "levels": [dict(row) for row in self.levels],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "stalled": bool(self.stalled),
            "final_relres": (
                None if self.final_relres is None else float(self.final_relres)
            ),
        }


def solve_health(fact: Any, krylov: Any) -> HealthReport | None:
    """The :class:`HealthReport` of one finished solve, or ``None``.

    ``fact`` contributes per-level rank rows when it carries a
    :class:`~repro.core.stats.RankStats` (``fact.stats``); ``krylov``
    contributes refinement outcome fields when an iterative method ran.
    """
    rows: list[dict[str, Any]] = []
    stats = getattr(fact, "stats", None)
    if stats is not None and hasattr(stats, "table"):
        try:
            for level, avg_rank, max_rank, avg_box in stats.table():
                rows.append({
                    "level": int(level),
                    "boxes": len(stats.ranks.get(level, ())),
                    "avg_rank": float(avg_rank),
                    "max_rank": int(max_rank),
                    "avg_compression": (
                        float(avg_rank) / float(avg_box) if avg_box else 0.0
                    ),
                })
        except (AttributeError, TypeError):  # not RankStats-shaped
            rows = []
    if not rows and krylov is None:
        return None
    final = getattr(krylov, "final_residual", None)
    if final is not None and not math.isfinite(float(final)):
        final = None
    return HealthReport(
        levels=tuple(rows),
        iterations=int(getattr(krylov, "iterations", 0) or 0),
        converged=bool(getattr(krylov, "converged", True)),
        stalled=bool(getattr(krylov, "stalled", False)),
        final_relres=None if final is None else float(final),
    )


class HealthMonitor:
    """Process-wide solver-health record: the ``repro_health_*`` families.

    The families are the only record; :meth:`snapshot` is a read of
    them. ``registry`` defaults to the process-wide :data:`REGISTRY`
    (tests pass a private one).
    """

    def __init__(self, registry: MetricsRegistry = REGISTRY) -> None:
        self._rank_hist = registry.histogram(
            "repro_health_skeleton_rank",
            "Skeleton rank selected per compressed box, by tree level",
            labelnames=("level",), buckets=COUNT_BUCKETS,
        )
        self._rank_max = registry.gauge(
            "repro_health_skeleton_rank_max",
            "Largest skeleton rank selected at a tree level",
            labelnames=("level",),
        )
        self._ratio_hist = registry.histogram(
            "repro_health_compression_ratio",
            "Skeleton rank over pre-compression box size, by tree level",
            labelnames=("level",), buckets=RATIO_BUCKETS,
        )
        self._iters = registry.counter(
            "repro_health_krylov_iterations_total",
            "Krylov/refinement iterations spent, by method",
            labelnames=("method",),
        )
        self._solves = registry.counter(
            "repro_health_krylov_solves_total",
            "Krylov solves observed, by method and convergence outcome",
            labelnames=("method", "converged"),
        )
        self._stalls = registry.counter(
            "repro_health_refinement_stalls_total",
            "Krylov solves whose residual stopped improving before "
            "convergence, by method",
            labelnames=("method",),
        )
        self._relres = registry.histogram(
            "repro_health_final_relres",
            "Final relative residual of Krylov solves, by method",
            labelnames=("method",), buckets=RELRES_BUCKETS,
        )
        self._last_relres = registry.gauge(
            "repro_health_last_relres",
            "Final relative residual of the latest finite Krylov solve, by method",
            labelnames=("method",),
        )

    # -- factor sweep --------------------------------------------------
    def record_box(self, level: int, size_before: int, rank: int) -> None:
        """One box compression: pre-compression size and chosen rank."""
        ratio = float(rank) / float(size_before) if size_before else 0.0
        self._rank_hist.observe(rank, level=level)
        self._rank_max.set_max(rank, level=level)
        self._ratio_hist.observe(ratio, level=level)

    def record_stats(self, stats: Any) -> None:
        """Every box of one finished factorization's
        :class:`~repro.core.stats.RankStats`."""
        for level, ranks in stats.ranks.items():
            for size, rank in zip(stats.box_sizes[level], ranks):
                self.record_box(level, size, rank)

    # -- Krylov --------------------------------------------------------
    def observe_krylov(self, method: str, result: Any) -> None:
        """One finished Krylov/refinement solve (CGResult/GMRESResult)."""
        iterations = int(getattr(result, "iterations", 0) or 0)
        converged = bool(getattr(result, "converged", True))
        stalled = bool(getattr(result, "stalled", False))
        final = getattr(result, "final_residual", None)
        if final is not None and not math.isfinite(float(final)):
            final = None
        if iterations:
            self._iters.inc(iterations, method=method)
        self._solves.inc(method=method, converged="yes" if converged else "no")
        if stalled:
            self._stalls.inc(method=method)
        if final is not None:
            self._relres.observe(float(final), method=method)
            self._last_relres.set(float(final), method=method)

    # -- harvest -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """``{"levels": [...], "krylov": [...]}``, read from the families."""
        ranks = self._rank_hist.series()
        maxes = self._rank_max.series()
        ratios = self._ratio_hist.series()
        level_rows = []
        for key in sorted(ranks, key=lambda k: int(k[0])):
            boxes = ranks[key]["count"]
            ratio = ratios.get(key, {"sum": 0.0, "count": 0})
            level_rows.append({
                "level": int(key[0]),
                "boxes": boxes,
                "avg_rank": ranks[key]["sum"] / boxes,
                "max_rank": int(maxes.get(key, 0)),
                "avg_compression": ratio["sum"] / max(ratio["count"], 1),
            })
        solves = self._solves.series()
        iters = self._iters.series()
        stalls = self._stalls.series()
        last = self._last_relres.series()
        krylov_rows = []
        for method in sorted({m for m, _c in solves}):
            key = (method,)
            converged = int(solves.get((method, "yes"), 0))
            krylov_rows.append({
                "method": method,
                "solves": converged + int(solves.get((method, "no"), 0)),
                "iterations": int(iters.get(key, 0)),
                "converged": converged,
                "stalls": int(stalls.get(key, 0)),
                "last_relres": last.get(key),
            })
        return {"levels": level_rows, "krylov": krylov_rows}


#: the process-wide health monitor every layer reports into
health = HealthMonitor()
