"""Sampling wall-clock profiler with span attribution.

A background thread walks ``sys._current_frames()`` at
``REPRO_OBS_PROFILE_HZ`` and attributes each thread's sample to the
innermost open span from the tracer's cross-thread mirror
(:meth:`Tracer.active_spans`), so profiles answer *what Python code a
span spent its time in* — the hotspot question span timings alone
cannot. Samples aggregate as collapsed stacks keyed by
``(track, span, frames)``; exports are folded-stack text (flamegraph
tooling) and speedscope JSON (https://www.speedscope.app).

Distributed runs mirror the span pipeline: rank worker processes run
their own profiler per job, ship the sample table back on
``RankReport.profile`` over the existing result channel, and
``run_spmd`` adopts the tables into the parent profiler — one profile
covers the parent plus every rank, on per-rank tracks.

Daemon threads parked outside any span in a known idle wait (queue
feeders, selector loops) are not recorded; a span-covered wait *is*
recorded, since it is part of that span's time.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
from types import FrameType
from typing import Any, Mapping

from repro.obs.lockwatch import make_lock
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import trace
from repro.util import write_atomic
from repro.util.config import obs_dir, obs_profile_hz

#: fallback rate when started without an explicit or configured rate
DEFAULT_HZ = 97.0
#: deepest stack recorded per sample
MAX_DEPTH = 128
#: attribution label for samples taken outside any open span
NO_SPAN = "(no span)"

#: one stack frame: (function, filename, first line of the function)
Frame = tuple[str, str, int]
#: one aggregation key: (track label, span name, root-first frames)
SampleKey = tuple[str, str, tuple[Frame, ...]]

#: (file basename, function) pairs marking a thread as idle-parked
_IDLE_FRAMES = {
    ("threading.py", "wait"),
    ("threading.py", "_wait_for_tstate_lock"),
    ("queue.py", "get"),
    ("selectors.py", "select"),
    ("connection.py", "poll"),
    ("connection.py", "wait"),
    ("connection.py", "_recv"),
    ("connection.py", "recv_bytes"),
    ("socket.py", "accept"),
    ("synchronize.py", "acquire"),
}

_MAIN_THREAD = threading.main_thread().ident


def _is_idle(frame: FrameType) -> bool:
    code = frame.f_code
    return (os.path.basename(code.co_filename), code.co_name) in _IDLE_FRAMES


def _walk(frame: FrameType | None) -> tuple[Frame, ...]:
    """Root-first frame tuples for one thread's current stack."""
    stack: list[Frame] = []
    depth = 0
    while frame is not None and depth < MAX_DEPTH:
        code = frame.f_code
        stack.append((code.co_name, code.co_filename, code.co_firstlineno))
        frame = frame.f_back
        depth += 1
    stack.reverse()
    return tuple(stack)


class SamplingProfiler:
    """Aggregating wall-clock sampler for every thread of this process."""

    def __init__(self, hz: float | None = None):
        self._hz = obs_profile_hz() if hz is None else float(hz)
        self._lock = make_lock("obs.profiler")
        self._samples: dict[SampleKey, int] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._running_hz = 0.0
        self._last_hz = 0.0
        self._sampled = REGISTRY.counter(
            "repro_profile_samples_total",
            "Profiler samples taken, by whether a span claimed them",
            labelnames=("attributed",),
        )

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None

    @property
    def active_hz(self) -> float:
        """The live sampling rate — 0.0 while stopped.

        This is what the vmpi dispatch path forwards to rank workers,
        mirroring how the tracer's enabled flag travels per job.
        """
        return self._running_hz

    def start(self, hz: float | None = None) -> bool:
        """Start the sampler thread; idempotent. False if the rate is 0."""
        rate = (self._hz or DEFAULT_HZ) if hz is None else float(hz)
        if rate <= 0:
            return False
        with self._lock:
            if self._thread is not None:
                return True
            worker = threading.Thread(
                target=self._run, args=(rate,),
                name="repro-obs-profiler", daemon=True,
            )
            self._thread = worker
            self._running_hz = rate
            self._last_hz = rate
        # the stop event is only ever touched from the starting/stopping
        # thread after the registration above won the lock; keeping it
        # outside the locked region keeps _stop out of the guarded set
        self._stop.clear()
        worker.start()
        return True

    def stop(self) -> None:
        """Stop the sampler thread (keeps the sample table)."""
        with self._lock:
            worker, self._thread = self._thread, None
            self._running_hz = 0.0
        if worker is not None:
            self._stop.set()
            worker.join(timeout=2.0)
            self._stop.clear()

    def reset_in_child(self) -> None:
        """Start clean in a freshly-started worker process.

        A fork child inherits the parent's sample table and a dead
        sampler "thread"; both belong to the parent.
        """
        self._stop = threading.Event()
        with self._lock:
            self._thread = None
            self._running_hz = 0.0
            self._last_hz = 0.0
            self._samples = {}

    # -- sampling ------------------------------------------------------
    def _run(self, hz: float) -> None:
        period = 1.0 / hz
        while not self._stop.wait(period):
            try:
                self._sample_once()
            except Exception:  # noqa: BLE001 - sampling must never kill the host
                pass

    def _sample_once(self) -> None:
        frames = sys._current_frames()
        spans = trace.active_spans()
        me = threading.get_ident()
        entries: list[tuple[SampleKey, bool]] = []
        for tid, frame in frames.items():
            if tid == me:
                continue
            span_name, track = spans.get(tid, (None, None))
            if span_name is None and _is_idle(frame):
                continue
            label = track or ("main" if tid == _MAIN_THREAD else f"thread-{tid}")
            key = (label, span_name or NO_SPAN, _walk(frame))
            entries.append((key, span_name is not None))
        if not entries:
            return
        with self._lock:
            for key, _attributed in entries:
                self._samples[key] = self._samples.get(key, 0) + 1
        attributed = sum(1 for _key, a in entries if a)
        if attributed:
            self._sampled.inc(attributed, attributed="yes")
        if len(entries) - attributed:
            self._sampled.inc(len(entries) - attributed, attributed="no")

    # -- harvest -------------------------------------------------------
    def snapshot_table(self) -> dict[SampleKey, int]:
        with self._lock:
            return dict(self._samples)

    def drain_table(self) -> dict[SampleKey, int]:
        """Return the sample table and clear it (rank-report shipping)."""
        with self._lock:
            table, self._samples = self._samples, {}
        return table

    def adopt(self, table: Mapping[SampleKey, int]) -> None:
        """Merge a sample table recorded elsewhere (rank workers)."""
        if not table:
            return
        with self._lock:
            for key, count in table.items():
                self._samples[key] = self._samples.get(key, 0) + int(count)

    def clear(self) -> None:
        with self._lock:
            self._samples = {}

    def stats(self) -> dict[str, Any]:
        """Attribution/track/span rollup of the current sample table."""
        table = self.snapshot_table()
        total = sum(table.values())
        attributed = 0
        tracks: dict[str, int] = {}
        span_counts: dict[str, int] = {}
        for (track, span, _frames), count in table.items():
            tracks[track] = tracks.get(track, 0) + count
            span_counts[span] = span_counts.get(span, 0) + count
            if span != NO_SPAN:
                attributed += count
        return {
            "running": self.running,
            "hz": self.active_hz,
            "samples": total,
            "attributed": attributed,
            "tracks": dict(sorted(tracks.items())),
            "spans": dict(sorted(span_counts.items(),
                                 key=lambda kv: -kv[1])),
        }

    # -- export --------------------------------------------------------
    def folded(self) -> str:
        """Collapsed stacks: ``track;span;frame;... count`` per line."""
        lines = []
        for (track, span, frames), count in sorted(self.snapshot_table().items()):
            parts = [track, span] + [name for name, _file, _line in frames]
            lines.append(f"{';'.join(parts)} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro profile") -> dict[str, Any]:
        """A speedscope "sampled" document, one profile per track.

        Each sample's root frame is its attributed span name (or
        ``(no span)``), so span attribution survives into the UI and
        downstream checks can read it off the root frames. Weights are
        seconds (sample count over the sampling rate).
        """
        table = self.snapshot_table()
        hz = self.active_hz or self._last_hz or self._hz or DEFAULT_HZ
        frame_list: list[dict[str, Any]] = []
        frame_idx: dict[tuple[Any, ...], int] = {}

        def intern(key: tuple[Any, ...], entry: dict[str, Any]) -> int:
            got = frame_idx.get(key)
            if got is None:
                got = frame_idx[key] = len(frame_list)
                frame_list.append(entry)
            return got

        per_track: dict[str, list[tuple[list[int], float]]] = {}
        for (track, span, frames), count in sorted(table.items()):
            stack = [intern(("span", span), {"name": span})]
            for func, fname, line in frames:
                stack.append(intern(("frame", func, fname, line),
                                    {"name": func, "file": fname, "line": line}))
            per_track.setdefault(track, []).append((stack, count / hz))
        profiles: list[dict[str, Any]] = []
        for track in sorted(per_track):
            samples = [stack for stack, _w in per_track[track]]
            weights = [w for _stack, w in per_track[track]]
            profiles.append({
                "type": "sampled",
                "name": track,
                "unit": "seconds",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            })
        doc: dict[str, Any] = {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frame_list},
            "profiles": profiles,
            "name": name,
            "exporter": "repro.obs.profiler",
        }
        if profiles:
            doc["activeProfileIndex"] = 0
        return doc

    def export_speedscope(self, path: str,
                          name: str = "repro profile") -> dict[str, Any]:
        """Write :meth:`speedscope` JSON to ``path`` (atomic replace)."""
        doc = self.speedscope(name)
        with write_atomic(path) as fh:
            fh.write(json.dumps(doc).encode())
        return doc

    def export_folded(self, path: str) -> None:
        """Write :meth:`folded` text to ``path`` (atomic replace)."""
        with write_atomic(path) as fh:
            fh.write(self.folded().encode())


#: the process-wide profiler (what vmpi forwards to rank workers)
profile = SamplingProfiler()

if obs_profile_hz() > 0:  # pragma: no cover - exercised via subprocess in CI
    profile.start()


def _autosave() -> None:  # pragma: no cover - exercised via subprocess in CI
    root = obs_dir()
    if root is None:
        return
    profile.stop()
    if profile.snapshot_table():
        try:
            os.makedirs(root, exist_ok=True)
            profile.export_speedscope(os.path.join(root, "profile.speedscope.json"))
            profile.export_folded(os.path.join(root, "profile.folded"))
        except OSError:
            pass


atexit.register(_autosave)
