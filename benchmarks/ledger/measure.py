"""Measurement primitives: calibrated samples, spans, layer shims.

Everything here times calls from outside: nothing under ``src/`` is
edited, and the shims :func:`layer_shims` installs wrap public
functions of a layer for the duration of a ``with`` block.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from .spec import CALIB_REF_S, CALIB_SIZE, SETUP_LAUNCHES
from .stats import summarize

#: a calibration reading older than this is taken again before a sample
CALIB_FRESH_S = 0.05
#: a sample is scaled by the median of the readings this close to it
CALIB_WINDOW_S = 1.0


class Calibrator:
    """Times a fixed dgemm so samples can be scaled to a reference speed.

    Machine speed on a shared box drifts by tens of percent over tens of
    seconds (README, "drift"); the kernel here moves in step with the
    solver's timings, so ``sample * CALIB_REF_S / calib`` repeats from
    run to run where raw seconds do not. One reading jitters by ~10 %
    itself, so a sample is scaled by the median of all readings taken
    within :data:`CALIB_WINDOW_S` of it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((CALIB_SIZE, CALIB_SIZE))
        self._when: list[float] = []
        self.readings: list[float] = []
        self.measure(3)  # first calls pay BLAS set-up

    def measure(self, reps: int = 1) -> None:
        for _ in range(reps):
            t0 = time.perf_counter()
            self._a @ self._a
            t1 = time.perf_counter()
            self._when.append(t1)
            self.readings.append(t1 - t0)

    def freshen(self) -> None:
        """Take a reading unless one was taken just now."""
        if time.perf_counter() - self._when[-1] > CALIB_FRESH_S:
            self.measure()

    def around(self, t0: float, t1: float) -> float:
        """Median reading between ``t0 - window`` and ``t1 + window``."""
        lo = bisect.bisect_left(self._when, t0 - CALIB_WINDOW_S)
        hi = bisect.bisect_right(self._when, t1 + CALIB_WINDOW_S)
        return statistics.median(self.readings[lo:hi])


class Sampler:
    """Collects ``(round, seconds, start, end)`` samples by kind, and checks.

    Round 0 is warm-up: its samples are recorded like any other and
    dropped by :meth:`values`.
    """

    def __init__(self, calibrator: Calibrator | None = None, exponent: float = 1.0) -> None:
        self.calib = calibrator or Calibrator()
        #: how much of the calibration's swing a sample is corrected for
        self.exponent = exponent
        #: set in the traced pass: every timed operation is also a span
        self.rec: SpanRecorder | None = None
        self.round = 0
        self.samples: dict[str, list[tuple[int, float, float, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def timed(self, kind: str, fn, rnd: int | None = None):
        """Run ``fn()`` between calibration readings; return its result."""
        self.calib.freshen()
        span = self.rec.span(f"op.{kind}") if self.rec else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            out = fn()
            t1 = time.perf_counter()
        # a long operation has few neighbours inside the window
        self.calib.measure(3 if t1 - t0 > CALIB_WINDOW_S / 4 else 1)
        self.samples[kind].append((self.round if rnd is None else rnd, t1 - t0, t0, t1))
        return out

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; ``ok=False`` counts it failed."""
        if self.round > 0:
            self.attempted += 1
            if not ok:
                self.failed += 1
        if not ok:
            self.failures.append(f"round {self.round}: {what}")
        return ok

    def outcome(self) -> dict:
        """The checks' tally, as the driver result carries it."""
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}

    def values(self, kind: str, *, calibrated: bool = True) -> list[float]:
        """Timed rounds' samples of ``kind``, scaled to the reference speed."""
        return [
            seconds * (
                (CALIB_REF_S / self.calib.around(t0, t1)) ** self.exponent
                if calibrated else 1.0
            )
            for rnd, seconds, t0, t1 in self.samples[kind]
            if rnd > 0
        ]

    def end_to_end(self, block_units: int) -> dict:
        """The wall-time end-to-end metrics: ``{name: summary}``.

        Each summary is :func:`stats.summarize` of the calibrated
        samples plus ``raw_median`` (plain seconds). ``rhs_per_s`` is
        ``block_units`` over each block sample.
        """
        kinds = {
            "setup_s": "setup", "cold_strict_s": "cold_strict",
            "cold_batched_s": "cold_batched", "reload_s": "reload",
            "solve_s": "solve", "refine_s": "refine", "rhs_per_s": "block",
        }
        out = {}
        for metric, kind in kinds.items():
            scaled = self.values(kind)
            raw = self.values(kind, calibrated=False)
            if metric == "rhs_per_s":
                scaled = [block_units / v for v in scaled]
                raw = [block_units / v for v in raw]
            out[metric] = {**summarize(scaled), "raw_median": statistics.median(raw)}
        return out


def timed_rounds(s: Sampler, seconds: float, do_round, setup_launch, rss_mb) -> dict:
    """Round 0, then whole timed rounds until ``seconds`` is spent.

    Whole rounds only, so every run has the same mixture of operations;
    at least two, then as many as fit (a round may overrun the budget by
    a tenth). ``setup_launch(s)`` runs after each of the first
    ``SETUP_LAUNCHES`` rounds, outside the timed section's operations
    but spread over the run like everything else. ``rss_mb()`` is read
    after the second timed round — every run has one, and the same work
    lies behind it, which is not true of the last round.
    """
    rounds = 0
    t_start = None
    peak_rss_mb = None
    while True:
        t_round = time.perf_counter()
        do_round(s)
        cost = time.perf_counter() - t_round
        if s.round < SETUP_LAUNCHES:
            setup_launch(s)
        if s.round == 0:
            t_start = time.perf_counter()
        else:
            rounds += 1
            if rounds == 2:
                peak_rss_mb = rss_mb()
        elapsed = time.perf_counter() - t_start
        if rounds >= 2 and elapsed + cost > 1.1 * seconds:
            break
        s.round += 1
    return {
        "rounds": rounds,
        "timed_s": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "calib_ms": 1e3 * statistics.median(s.calib.readings),
        # where the timed section went, by operation kind (plain seconds)
        "kind_seconds": {
            kind: sum(s.values(kind, calibrated=False)) for kind in s.samples
        },
    }


class SpanRecorder:
    """In-memory spans: name, start, end, parent, workload, round.

    One thread records (the driver's), so the open-span stack is a plain
    list. A span is a dict: whoever opens it may stamp exact counts on it
    (entries evaluated, rank returned) at the same boundary.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.round = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "round": self.round,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str, *, timed_rounds_only: bool = True) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and (s["round"] > 0 or not timed_rounds_only)
        ]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))


def _patch_everywhere(func, wrapper) -> list[tuple[object, str]]:
    """Rebind ``func`` to ``wrapper`` in every repro module that imported it."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, wrapper)
                sites.append((module, attr))
    return sites


@contextlib.contextmanager
def layer_shims(rec: SpanRecorder):
    """Record a span around each call into ``kernels`` and ``linalg``.

    Wraps ``KernelMatrix.block``/``proxy_*_block`` (``kernels.block``),
    their ``*_stack`` forms (``kernels.block_stack``), ``interp_decomp``
    (``linalg.id``), ``interp_decomp_stack`` (``linalg.id_stack``) and
    ``PartialLU.__init__`` (``linalg.lu``) while the block runs, so a
    span around ``srs_factor`` gets them as children and its self time is
    what neither layer accounts for. Shimmed spans carry ``entries`` /
    ``rank`` counts where the call has them.
    """
    from repro.kernels.base import KernelMatrix
    from repro.linalg import interpolative
    from repro.linalg.lu import PartialLU

    undo: list = []

    def spanned(fn, span_name: str, count=None):
        """``fn`` under a span; ``count=(key, of_result)`` stamps a count on it."""
        def shim(*args, **kwargs):
            with rec.span(span_name) as span:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[count[0]] = count[1](out)
                return out

        return shim

    def wrap_method(cls, attr: str, span_name: str, count=None):
        original = getattr(cls, attr)
        setattr(cls, attr, spanned(original, span_name, count))
        undo.append(lambda: setattr(cls, attr, original))

    def wrap_function(func, span_name: str, count=None):
        sites = _patch_everywhere(func, spanned(func, span_name, count))
        undo.append(lambda: [setattr(m, a, func) for m, a in sites])

    size = ("entries", lambda out: int(out.size))
    for attr in ("block", "proxy_row_block", "proxy_col_block"):
        wrap_method(KernelMatrix, attr, "kernels.block", size)
    for attr in ("block_stack", "proxy_row_block_stack", "proxy_col_block_stack"):
        wrap_method(KernelMatrix, attr, "kernels.block_stack", size)
    wrap_function(interpolative.interp_decomp, "linalg.id",
                  ("rank", lambda out: int(out.rank)))
    wrap_function(interpolative.interp_decomp_stack, "linalg.id_stack")
    wrap_method(PartialLU, "__init__", "linalg.lu")
    try:
        yield
    finally:
        for restore in reversed(undo):
            restore()
