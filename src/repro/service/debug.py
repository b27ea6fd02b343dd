"""The live ``GET /debug`` dashboard — dependency-free strict XHTML.

One self-refreshing page over the service's observability surface:
request counters and cache/batcher stats, the solver-health rollup
(per-level skeleton ranks, Krylov convergence), the process's resources
(RSS, rank-pool liveness, store-tier bytes — read afresh on every
render), the recent-request ring with each request's queue / setup /
solve seconds, and the sampling profiler's status with download links
for its speedscope/folded exports.

The markup is strict XHTML — every element closed, every dynamic value
escaped, no DOCTYPE, no script — so smoke tests validate it with
``xml.etree.ElementTree`` instead of a browser, and a browser still
renders it (plus auto-refreshes via the ``meta`` tag).
"""

from __future__ import annotations

import html
import os
from typing import Any, Iterable, Sequence

from repro.obs import profile, trace
from repro.vmpi.pool import pools_health

#: seconds between browser auto-refreshes of the dashboard
REFRESH_S = 3

_STYLE = """
body { font-family: monospace; margin: 1.5em; background: #fafafa; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.4em; }
table { border-collapse: collapse; margin: 0.4em 0; }
th, td { border: 1px solid #bbb; padding: 0.2em 0.6em; text-align: left; }
th { background: #eee; }
p.empty { color: #888; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    """Human-lean cell text: booleans as yes/no, floats trimmed."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(
    table_id: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    empty: str = "no data yet",
) -> str:
    body_rows = [
        "<tr>" + "".join(f"<td>{_esc(_fmt(cell))}</td>" for cell in row) + "</tr>"
        for row in rows
    ]
    if not body_rows:
        return f'<p class="empty" id="{_esc(table_id)}">{_esc(empty)}</p>'
    head = "<tr>" + "".join(f"<th>{_esc(h)}</th>" for h in headers) + "</tr>"
    return (
        f'<table id="{_esc(table_id)}"><thead>{head}</thead>'
        f"<tbody>{''.join(body_rows)}</tbody></table>"
    )


def _kv_table(table_id: str, mapping: dict[str, Any]) -> str:
    return _table(table_id, ("key", "value"), sorted(mapping.items()))


def _stats_section(stats: dict[str, Any]) -> str:
    scalars = {k: v for k, v in stats.items() if not isinstance(v, dict)}
    return "<h2>Service stats</h2>" + _kv_table("service-stats", scalars)


def _health_section(health_snap: dict[str, Any] | None) -> str:
    snap = health_snap or {"levels": [], "krylov": []}
    levels = snap.get("levels") or []
    level_keys = list(levels[0]) if levels else [
        "level", "boxes", "avg_rank", "max_rank", "avg_compression",
    ]
    krylov = snap.get("krylov") or []
    krylov_keys = list(krylov[0]) if krylov else [
        "method", "solves", "iterations", "converged", "stalls", "last_relres",
    ]
    return (
        "<h2>Solver health</h2>"
        + _table(
            "health-levels",
            level_keys,
            [[row.get(k) for k in level_keys] for row in levels],
            empty="no factorizations recorded yet",
        )
        + _table(
            "health-krylov",
            krylov_keys,
            [[row.get(k) for k in krylov_keys] for row in krylov],
            empty="no iterative solves recorded yet",
        )
    )


def _rss_bytes() -> int:
    """Resident set size of this process (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return 0
    return pages * os.sysconf("SC_PAGE_SIZE")


def _resources_section(service: Any) -> str:
    pools = pools_health()
    keys = list(pools[0]) if pools else []
    out = (
        "<h2>Resources</h2>"
        + _kv_table("resources", {"rss_bytes": _rss_bytes()})
        + _table(
            "resources-pools",
            keys,
            [[p.get(k) for k in keys] for p in pools],
            empty="no rank pool started",
        )
    )
    if service.store is not None:
        out += _table(
            "resources-store",
            ("tier", "bytes"),
            sorted(service.store.residency().items()),
        )
    return out


def _requests_section(recent: list[dict[str, Any]]) -> str:
    headers = (
        "request_id", "status", "method", "cache_hit", "batch_size",
        "duration_s", "t_queue", "t_setup", "t_solve", "error",
    )
    rows = [[req.get(h) for h in headers] for req in reversed(recent)]  # newest first
    return "<h2>Recent requests</h2>" + _table(
        "recent-requests", headers, rows, empty="no requests yet"
    )


def _profiler_section() -> str:
    stats = profile.stats()
    info = {
        "running": stats["running"],
        "hz": stats["hz"],
        "samples": stats["samples"],
        "attributed": stats["attributed"],
    }
    tracks = stats["tracks"]
    out = (
        "<h2>Profiler</h2>"
        + _kv_table("profiler", info)
        + _table(
            "profiler-tracks",
            ("track", "samples"),
            sorted(tracks.items()),
            empty="no samples yet (enable with REPRO_OBS_PROFILE_HZ)",
        )
        + '<p><a href="/debug/profile?format=speedscope">speedscope JSON</a>'
        ' | <a href="/debug/profile?format=folded">folded stacks</a></p>'
    )
    return out


def _tracer_section() -> str:
    info = {
        "enabled": trace.enabled,
        "buffered_spans": len(trace.snapshot()),
        "max_spans": trace.max_spans(),
        "dropped_spans": trace.dropped_spans(),
    }
    return "<h2>Tracer</h2>" + _kv_table("tracer", info)


def render_debug(service: Any) -> str:
    """The full dashboard page for one service, as strict XHTML.

    ``service`` is a :class:`~repro.service.service.SolveService`
    (typed loosely to keep this renderer import-light).
    """
    stats = service.stats().to_dict()
    health_snap = stats.pop("health", None)
    return (
        '<html xmlns="http://www.w3.org/1999/xhtml"><head>'
        "<title>repro /debug</title>"
        f'<meta http-equiv="refresh" content="{REFRESH_S}" />'
        f"<style>{_STYLE}</style>"
        "</head><body>"
        "<h1>repro service debug</h1>"
        '<p><a href="/stats">/stats</a> | <a href="/metrics">/metrics</a>'
        ' | <a href="/healthz">/healthz</a></p>'
        + _stats_section(stats)
        + _health_section(health_snap)
        + _resources_section(service)
        + _requests_section(service.recent_requests())
        + _profiler_section()
        + _tracer_section()
        + "</body></html>"
    )
