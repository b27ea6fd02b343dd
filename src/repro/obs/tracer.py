"""Hierarchical span tracer with a near-zero-cost disabled mode.

``trace.span("factor.level", level=3)`` opens a span: nesting comes
from a thread-local stack, timestamps from ``time.perf_counter()``
(CLOCK_MONOTONIC on Linux — system-wide, so spans recorded in rank
*processes* line up with the parent's timeline when merged). Finished
spans accumulate in the tracer; :meth:`Tracer.export_chrome` writes
them as Chrome ``trace_event`` JSON for ``chrome://tracing``/Perfetto.

Tracing is off by default (``REPRO_OBS=off``): a disabled ``span()``
call is one flag read returning a shared no-op context manager, so the
parity suites and hot loops pay essentially nothing. Every finished
span also feeds the ``repro_span_seconds`` histogram in the default
metrics registry.

Distributed runs: vmpi rank workers record spans into their own
process-local tracer under a ``rank<r>`` track; the backend drains them
into ``RankReport.spans`` (riding the existing pickle/shm result
channel) and ``run_spmd`` adopts them back into this tracer, merging
all ranks into one timeline with per-rank tracks.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import deque
from typing import Any, Iterable

from repro.obs.lockwatch import make_lock
from repro.obs.metrics import LATENCY_BUCKETS, REGISTRY
from repro.util import write_atomic
from repro.util.config import obs_dir, obs_enabled

#: most finished spans a tracer retains: the buffer is a ring, so once
#: full, recording a span drops the oldest one and bumps
#: ``repro_obs_spans_dropped_total`` — a long-running service keeps the
#: most recent window instead of growing without bound
MAX_SPANS = 65536


class Span:
    """One finished (or in-flight) span. Plain data; pickles cleanly."""

    __slots__ = ("name", "start", "duration", "track", "thread", "depth",
                 "parent", "attrs")

    def __init__(self, name: str, start: float, *, track: str | None = None,
                 thread: int = 0, depth: int = 0, parent: str | None = None,
                 attrs: dict[str, Any] | None = None):
        self.name = name
        self.start = start
        self.duration = 0.0
        self.track = track
        self.thread = thread
        self.depth = depth
        self.parent = parent
        self.attrs = attrs or {}

    # __slots__ classes need explicit state hooks only for protocol < 2;
    # the default reduce handles slots, but be explicit for clarity.
    def __getstate__(self) -> dict[str, Any]:
        return {s: getattr(self, s) for s in self.__slots__}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for s in self.__slots__:
            setattr(self, s, state[s])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, start={self.start:.6f}, "
                f"dur={self.duration * 1e3:.3f}ms, depth={self.depth}, "
                f"track={self.track!r})")


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._span = Span(name, 0.0, attrs=attrs)

    def set(self, **attrs: Any) -> None:
        """Attach attributes after entry (e.g. iteration counts)."""
        self._span.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        span = self._span
        span.thread = threading.get_ident()
        span.track = tracer._track()
        span.depth = len(stack)
        span.parent = stack[-1].name if stack else None
        stack.append(span)
        span.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        span = self._span
        span.duration = end - span.start
        stack = self._tracer._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unwound out of order (generator abuse): resync
            del stack[stack.index(span):]
        self._tracer._record(span)
        return False


class Tracer:
    """Collects spans from every thread of this process."""

    def __init__(self, enabled: bool | None = None):
        self._enabled = obs_enabled() if enabled is None else enabled
        self._lock = make_lock("obs.tracer")
        #: finished-span ring; at capacity, recording drops the oldest
        self._capacity = MAX_SPANS
        self._spans: deque[Span] = deque(maxlen=self._capacity)
        self._local = threading.local()
        # Cross-thread mirrors of each thread's open-span stack and track
        # label, keyed by thread id, for the sampling profiler. Written
        # only via GIL-atomic dict item assignment, never under _lock —
        # readers (active_spans) tolerate concurrent pushes/pops.
        self._active: dict[int, list[Span]] = {}
        self._tracks: dict[int, str | None] = {}
        self._span_hist = REGISTRY.histogram(
            "repro_span_seconds", "Duration of traced spans by name",
            labelnames=("name",), buckets=LATENCY_BUCKETS,
        )
        self._dropped = REGISTRY.counter(
            "repro_obs_spans_dropped_total",
            "Finished spans evicted from the tracer's bounded ring buffer",
        )

    # -- enablement ----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def set_enabled(self, on: bool) -> None:
        self._enabled = bool(on)

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._active[threading.get_ident()] = stack
        return stack

    def _track(self) -> str | None:
        return getattr(self._local, "track", None)

    def active_spans(self) -> dict[int, tuple[str | None, str | None]]:
        """``{thread_id: (innermost_open_span_name, track_label)}``.

        A lock-free snapshot for the sampling profiler: either element
        may be ``None`` (no open span / unlabeled thread). Entries for
        dead threads are pruned as a side effect.
        """
        active, tracks = self._active, self._tracks
        alive = {t.ident for t in threading.enumerate()}
        for tid in [t for t in list(active) if t not in alive]:
            active.pop(tid, None)
        for tid in [t for t in list(tracks) if t not in alive]:
            tracks.pop(tid, None)
        out: dict[int, tuple[str | None, str | None]] = {}
        for tid in set(active) | set(tracks):
            stack = active.get(tid)
            name: str | None = None
            if stack:
                try:
                    name = stack[-1].name
                except IndexError:  # raced the owner's pop
                    name = None
            out[tid] = (name, tracks.get(tid))
        return out

    def _record(self, span: Span) -> None:
        with self._lock:
            dropped = len(self._spans) == self._capacity
            self._spans.append(span)
        if dropped:
            self._dropped.inc()
        self._span_hist.observe(span.duration, name=span.name)

    def span(self, name: str, **attrs: Any) -> Any:
        """Open a span named ``name``; extra kwargs become attributes."""
        if not self._enabled:
            return _NOOP
        return _LiveSpan(self, name, attrs)

    def track(self, name: str | None) -> "_TrackCtx":
        """Label spans opened by this thread (e.g. ``rank3``)."""
        return _TrackCtx(self, name)

    # -- harvest -------------------------------------------------------
    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Return all finished spans and clear the buffer."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
        return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def dropped_spans(self) -> float:
        """Spans evicted from the ring so far (process lifetime)."""
        return self._dropped.value()

    def max_spans(self) -> int:
        """The ring capacity."""
        return self._capacity

    def reset_in_child(self) -> None:
        """Start clean in a freshly-started worker process.

        A fork child inherits the parent's recorded spans and even the
        forking thread's open-span stack; both belong to the parent.
        """
        with self._lock:
            self._spans.clear()
        self._active = {}
        self._tracks = {}
        self._local.stack = []
        self._local.track = None
        self._active[threading.get_ident()] = self._local.stack

    def adopt(self, spans: Iterable[Span]) -> None:
        """Merge spans recorded elsewhere (rank workers) into this tracer."""
        spans = list(spans)
        if not spans:
            return
        with self._lock:
            dropped = max(0, len(self._spans) + len(spans) - self._capacity)
            self._spans.extend(spans)
        if dropped:
            self._dropped.inc(dropped)

    # -- export --------------------------------------------------------
    def export_chrome(self, path: str | None = None, *,
                      drain: bool = False) -> dict:
        """Render spans as Chrome ``trace_event`` JSON.

        Returns the trace dict; also writes it to ``path`` when given.
        ``drain=True`` clears the buffer after exporting.
        """
        spans = self.drain() if drain else self.snapshot()
        doc = chrome_trace(spans)
        if path is not None:
            with write_atomic(path) as fh:
                fh.write(json.dumps(doc).encode())
        return doc


def chrome_trace(spans: Iterable[Span]) -> dict:
    """Build a ``chrome://tracing`` document from finished spans.

    Each distinct track (``main``, ``rank0``..., or ``thread-<id>`` for
    unlabeled non-main threads) becomes one named "thread" row; spans
    become "X" complete events with microsecond timestamps.
    """
    spans = sorted(spans, key=lambda s: s.start)
    tids: dict[str, int] = {}
    events: list[dict] = []
    for span in spans:
        track = span.track or ("main" if span.thread == _MAIN_THREAD
                               else f"thread-{span.thread}")
        tid = tids.setdefault(track, len(tids) + 1)
        event = {
            "name": span.name,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": tid,
        }
        args = dict(span.attrs)
        if span.parent is not None:
            args.setdefault("parent", span.parent)
        args["depth"] = span.depth
        event["args"] = args
        events.append(event)
    meta = [{"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "repro"}}]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        meta.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                     "args": {"name": track}})
        meta.append({"name": "thread_sort_index", "ph": "M", "pid": 1,
                     "tid": tid, "args": {"sort_index": tid}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


_MAIN_THREAD = threading.main_thread().ident

#: the process-wide tracer every layer records into
trace = Tracer()


class _TrackCtx:
    __slots__ = ("_tracer", "_name", "_prev")

    def __init__(self, tracer: Tracer, name: str | None):
        self._tracer = tracer
        self._name = name
        self._prev: str | None = None

    def __enter__(self) -> "_TrackCtx":
        local = self._tracer._local
        self._prev = getattr(local, "track", None)
        local.track = self._name
        self._tracer._tracks[threading.get_ident()] = self._name
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._local.track = self._prev
        self._tracer._tracks[threading.get_ident()] = self._prev
        return False


def _autosave() -> None:  # pragma: no cover - exercised via subprocess in CI
    root = obs_dir()
    if root is None or not trace.enabled:
        return
    if trace.snapshot():
        try:
            os.makedirs(root, exist_ok=True)
            trace.export_chrome(os.path.join(root, "trace.json"))
        except OSError:
            pass


atexit.register(_autosave)
