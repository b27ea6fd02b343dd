"""Observability: span tracing, typed metrics, structured request logs.

Five surfaces over one instrumentation layer:

* ``trace`` — the process-wide :class:`~repro.obs.tracer.Tracer`.
  ``with trace.span("factor.level", level=3): ...`` records nested
  spans when ``REPRO_OBS=on`` (off by default; disabled spans are a
  shared no-op). ``trace.export_chrome(path)`` writes the timeline as
  Chrome ``trace_event`` JSON; with ``REPRO_OBS_DIR`` set, it autosaves
  there as ``trace.json`` at process exit.
* ``REGISTRY`` — the default :class:`~repro.obs.metrics.MetricsRegistry`
  of counters/gauges/histograms, always live, rendered by the service's
  ``GET /metrics`` in Prometheus text exposition format.
* ``log_event`` — structured JSON request-log lines on the
  ``repro.requests`` logger.
* ``profile`` — the process-wide sampling
  :class:`~repro.obs.profiler.SamplingProfiler` (span-attributed
  wall-clock samples at ``REPRO_OBS_PROFILE_HZ``, speedscope/folded
  export, autosaved into ``REPRO_OBS_DIR`` at process exit).
* ``health`` — the :class:`~repro.obs.health.HealthMonitor` of
  numerical solver-health aggregates (skeleton ranks, compression
  ratios, Krylov outcomes).

Plus one guardrail: ``make_lock`` — the project's lock factory. Plain
``threading`` locks by default; under ``REPRO_OBS=on`` they become
:class:`~repro.obs.lockwatch.WatchedLock` s that record acquisition
order and warn on lock-order inversions and on nesting two instances of
one lock — the project's only lock-order guard
(``lock_order_edges()`` lists what was observed).
"""

from repro.obs.lockwatch import (
    WatchedLock,
    lock_order_edges,
    make_lock,
    reset_lock_watch,
)
from repro.obs.metrics import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.tracer import Span, Tracer, chrome_trace, trace
from repro.obs.logs import enable_stderr_logs, log_event
from repro.obs.profiler import SamplingProfiler, profile
from repro.obs.health import HealthMonitor, HealthReport, health, solve_health

__all__ = [
    "HealthMonitor",
    "HealthReport",
    "SamplingProfiler",
    "health",
    "profile",
    "solve_health",
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "Tracer",
    "WatchedLock",
    "chrome_trace",
    "enable_stderr_logs",
    "lock_order_edges",
    "log_event",
    "make_lock",
    "parse_prometheus",
    "render_prometheus",
    "reset_lock_watch",
    "trace",
]
