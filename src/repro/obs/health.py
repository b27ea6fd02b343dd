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

The process-wide :data:`health` monitor backs the ``repro_health_*``
metric families and the ``/stats`` + ``/debug`` health tables;
:func:`solve_health` builds the per-solve :class:`HealthReport` the
facade stamps onto :class:`~repro.api.report.SolveReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.obs.lockwatch import make_lock
from repro.obs.metrics import COUNT_BUCKETS, REGISTRY

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
    """Cumulative, process-wide solver-health aggregates + metrics."""

    def __init__(self) -> None:
        self._lock = make_lock("obs.health")
        #: level -> {boxes, rank_sum, max_rank, size_sum, ratio_sum}
        self._levels: dict[int, dict[str, float]] = {}
        #: method -> {solves, iterations, converged, stalls, last_relres}
        self._krylov: dict[str, dict[str, Any]] = {}
        self._rank_hist = REGISTRY.histogram(
            "repro_health_skeleton_rank",
            "Skeleton rank selected per compressed box, by tree level",
            labelnames=("level",), buckets=COUNT_BUCKETS,
        )
        self._ratio_hist = REGISTRY.histogram(
            "repro_health_compression_ratio",
            "Skeleton rank over pre-compression box size, by tree level",
            labelnames=("level",), buckets=RATIO_BUCKETS,
        )
        self._iters = REGISTRY.counter(
            "repro_health_krylov_iterations_total",
            "Krylov/refinement iterations spent, by method",
            labelnames=("method",),
        )
        self._solves = REGISTRY.counter(
            "repro_health_krylov_solves_total",
            "Krylov solves observed, by method and convergence outcome",
            labelnames=("method", "converged"),
        )
        self._stalls = REGISTRY.counter(
            "repro_health_refinement_stalls_total",
            "Krylov solves whose residual stopped improving before "
            "convergence, by method",
            labelnames=("method",),
        )
        self._relres = REGISTRY.histogram(
            "repro_health_final_relres",
            "Final relative residual of Krylov solves, by method",
            labelnames=("method",), buckets=RELRES_BUCKETS,
        )

    # -- factor sweep --------------------------------------------------
    def record_box(self, level: int, size_before: int, rank: int) -> None:
        """One box compression: pre-compression size and chosen rank."""
        ratio = float(rank) / float(size_before) if size_before else 0.0
        with self._lock:
            agg = self._levels.setdefault(level, {
                "boxes": 0.0, "rank_sum": 0.0, "max_rank": 0.0,
                "size_sum": 0.0, "ratio_sum": 0.0,
            })
            agg["boxes"] += 1
            agg["rank_sum"] += rank
            agg["max_rank"] = max(agg["max_rank"], float(rank))
            agg["size_sum"] += size_before
            agg["ratio_sum"] += ratio
        self._rank_hist.observe(rank, level=level)
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
        with self._lock:
            agg = self._krylov.setdefault(method, {
                "solves": 0, "iterations": 0, "converged": 0,
                "stalls": 0, "last_relres": None,
            })
            agg["solves"] += 1
            agg["iterations"] += iterations
            agg["converged"] += 1 if converged else 0
            agg["stalls"] += 1 if stalled else 0
            if final is not None:
                agg["last_relres"] = float(final)
        if iterations:
            self._iters.inc(iterations, method=method)
        self._solves.inc(method=method, converged="yes" if converged else "no")
        if stalled:
            self._stalls.inc(method=method)
        if final is not None:
            self._relres.observe(float(final), method=method)

    # -- harvest -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """``{"levels": [...], "krylov": [...]}`` cumulative rollup."""
        with self._lock:
            levels = {lvl: dict(agg) for lvl, agg in self._levels.items()}
            krylov = {m: dict(agg) for m, agg in self._krylov.items()}
        level_rows = []
        for lvl in sorted(levels):
            agg = levels[lvl]
            boxes = agg["boxes"] or 1.0
            level_rows.append({
                "level": int(lvl),
                "boxes": int(agg["boxes"]),
                "avg_rank": agg["rank_sum"] / boxes,
                "max_rank": int(agg["max_rank"]),
                "avg_compression": agg["ratio_sum"] / boxes,
            })
        krylov_rows = []
        for method in sorted(krylov):
            agg = krylov[method]
            krylov_rows.append({
                "method": method,
                "solves": int(agg["solves"]),
                "iterations": int(agg["iterations"]),
                "converged": int(agg["converged"]),
                "stalls": int(agg["stalls"]),
                "last_relres": agg["last_relres"],
            })
        return {"levels": level_rows, "krylov": krylov_rows}

    def reset(self) -> None:
        """Drop the aggregates (tests only; metric families persist)."""
        with self._lock:
            self._levels = {}
            self._krylov = {}


#: the process-wide health monitor every layer reports into
health = HealthMonitor()
