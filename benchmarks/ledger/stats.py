"""Sample and span arithmetic (stdlib only, unit-tested on synthetic data)."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: samples that must lie beyond a percentile for it to be reported
TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> int | None:
    """Highest of p50/p75/p90/p95/p99 with >= 10 samples beyond it.

    ``None`` when even the upper half holds fewer than ten samples
    (``count < 20``): such a metric reports its median alone.
    """
    best = None
    for q in (50, 75, 90, 95, 99):
        if count * (100 - q) / 100.0 >= TAIL_SAMPLES:
            best = q
    return best


def summarize(values: list[float]) -> dict:
    """``{"median", "tail_q", "tail", "count"}`` of one metric's samples."""
    q = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "tail_q": q,
        "tail": None if q is None else percentile(values, q),
        "count": len(values),
    }


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median — the steadiness figure the driver computes."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus what its direct children cover.

    ``spans`` carry ``id``, ``parent`` (an id or ``None``), ``start`` and
    ``end``. Children of one parent are recorded by one thread and do
    not overlap, so the covered part is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - covered[span["id"]]
        for span in spans
    }


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    """The span ``root_id`` and everything recorded under it."""
    children: dict[int, list[dict]] = defaultdict(list)
    root = None
    for span in spans:
        if span["id"] == root_id:
            root = span
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out, stack = [], [root]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(children[span["id"]])
    return out


def self_by_name(spans: list[dict]) -> dict[str, float]:
    """Self time summed by span name.

    Over a subtree the values add up to the root's duration.
    """
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["id"]]
    return dict(totals)
