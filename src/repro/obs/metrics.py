"""Typed metrics: counters, gauges, histograms, and Prometheus text output.

A :class:`MetricsRegistry` holds named metric families; each family
carries zero or more label names and a value per label-set. Unlike span
tracing (gated by ``REPRO_OBS``), metrics are always live: an increment
is a lock plus a dict update, in line with the counters the service and
vmpi layers already keep unconditionally.

:func:`render_prometheus` emits text exposition format 0.0.4 (the format
``GET /metrics`` serves); :func:`parse_prometheus` is the strict
well-formedness parser the tests and CI use to accept that output.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable, Mapping

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: the project grammar a declared family must follow (stricter than
#: the exposition format's ``_NAME_RE``, which the parser still uses)
_FAMILY_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")
#: exposition suffixes synthesized per histogram family
_RESERVED_SUFFIXES = ("_bucket", "_sum", "_count")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default seconds buckets for latency histograms
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: default buckets for payload-size histograms (bytes)
BYTES_BUCKETS = (1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 25, 1 << 28)
#: default buckets for small-count histograms (batch occupancy, ranks)
COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def _fmt(value: float) -> str:
    """Format a sample value the way Prometheus clients do."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(names: tuple[str, ...], values: tuple[str, ...],
                  extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    pairs += [f'{n}="{_escape_label(v)}"' for n, v in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Metric:
    """Common storage: one value slot per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        # Any, not object: Counter/Gauge store floats, Histogram stores
        # mutable state dicts — subclasses narrow per use site
        self._values: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def series(self) -> dict[tuple[str, ...], Any]:
        """``{label values: value}`` of every label-set seen, read under the lock."""
        with self._lock:
            return dict(self._values)


class Counter(_Metric):
    """Monotonically increasing value (per label-set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(self._values.get(key, 0.0)) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))


class Gauge(_Metric):
    """Value that can go up and down (resident bytes, queue depth...)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(self._values.get(key, 0.0)) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels: object) -> None:
        """Raise the value to ``value`` if it is larger (a running maximum)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = max(float(self._values.get(key, value)), float(value))

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))


class Histogram(_Metric):
    """Fixed-bucket histogram; exposition uses cumulative ``le`` counts."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...],
                 buckets: tuple[float, ...]):
        super().__init__(name, help, labelnames)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} needs sorted, non-empty buckets")
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                state = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
                self._values[key] = state
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    state["counts"][i] += 1
                    break
            state["sum"] += float(value)
            state["count"] += 1

    def snapshot(self, **labels: object) -> dict:
        state = self.series().get(self._key(labels))
        if state is None:
            return {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
        return state

    def series(self) -> dict[tuple[str, ...], dict]:
        """``{label values: {counts, sum, count}}``, each state copied."""
        with self._lock:
            return {key: dict(state, counts=list(state["counts"]))
                    for key, state in self._values.items()}


class MetricsRegistry:
    """Process-wide, thread-safe collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated
    calls with the same name return the same family (so many service
    instances share one counter), and a name registered as one kind
    cannot be re-registered as another.

    Declaring a family checks the project's naming grammar: names match
    ``repro_[a-z][a-z0-9_]*``, counters end in ``_total`` and nothing
    else does, and no name ends in ``_bucket``/``_sum``/``_count``.
    Every family in ``repro`` is declared at import or in a singleton's
    constructor, so a bad name fails the first test that imports it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Iterable[str], **kwargs) -> _Metric:
        if not _FAMILY_RE.match(name):
            raise ValueError(
                f"invalid metric name {name!r}: families match "
                "^repro_[a-z][a-z0-9_]*$"
            )
        if (cls is Counter) != name.endswith("_total"):
            raise ValueError(
                f"{cls.kind} {name!r}: counters end in _total and nothing else does"
            )
        if name.endswith(_RESERVED_SUFFIXES):
            raise ValueError(
                f"metric name {name!r} ends in a suffix the exposition "
                "synthesizes (_bucket/_sum/_count)"
            )
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Iterable[str] = (),
                  buckets: tuple[float, ...] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def collect(self) -> list[_Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def reset(self) -> None:
        """Drop every family (tests only — live handles go stale)."""
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        return render_prometheus(self)


#: the process-wide default registry (what ``GET /metrics`` serves)
REGISTRY = MetricsRegistry()


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Render a registry in Prometheus text exposition format 0.0.4."""
    registry = REGISTRY if registry is None else registry
    lines: list[str] = []
    for metric in registry.collect():
        # HELP text has its own escaping rules (no quotes, unlike labels)
        help_text = (metric.help or metric.name).replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {metric.name} {help_text}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        items = sorted(metric.series().items())
        if isinstance(metric, Histogram):
            for key, state in items:
                cumulative = 0
                for edge, count in zip(metric.buckets, state["counts"]):
                    cumulative += count
                    suffix = _label_suffix(metric.labelnames, key, (("le", _fmt(edge)),))
                    lines.append(f"{metric.name}_bucket{suffix} {cumulative}")
                suffix = _label_suffix(metric.labelnames, key, (("le", "+Inf"),))
                lines.append(f"{metric.name}_bucket{suffix} {state['count']}")
                base = _label_suffix(metric.labelnames, key)
                lines.append(f"{metric.name}_sum{base} {_fmt(state['sum'])}")
                lines.append(f"{metric.name}_count{base} {state['count']}")
        else:
            if not items and not metric.labelnames:
                items = [((), 0.0)]
            for key, value in items:
                suffix = _label_suffix(metric.labelnames, key)
                lines.append(f"{metric.name}{suffix} {_fmt(float(value))}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# exposition-format parser (tests + CI well-formedness gate)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+(?P<ts>-?[0-9]+))?$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse text exposition format; raise ``ValueError`` if malformed.

    Returns ``{sample_name: [(labels, value), ...]}``. Checks the
    invariants a Prometheus scraper enforces: HELP/TYPE comment syntax,
    known metric kinds, sample-line grammar, parseable values, and that
    every histogram has a ``+Inf`` bucket with matching ``_count``.
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in {"HELP", "TYPE"}:
                raise ValueError(f"line {lineno}: bad comment {line!r}")
            if not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: bad metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in {
                    "counter", "gauge", "histogram", "summary", "untyped"
                }:
                    raise ValueError(f"line {lineno}: bad TYPE {line!r}")
                types[parts[2]] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: bad sample {line!r}")
        labels: dict[str, str] = {}
        raw_labels = m.group("labels")
        if raw_labels is not None and raw_labels.strip():
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw_labels):
                labels[pair.group(1)] = pair.group(2)
                consumed = pair.end()
            rest = raw_labels[consumed:].strip().strip(",")
            if rest:
                raise ValueError(f"line {lineno}: bad labels {raw_labels!r}")
        raw_value = m.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value {raw_value!r}") from exc
        samples.setdefault(m.group("name"), []).append((labels, value))
    for name, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(f"{name}_bucket", [])
        counts = samples.get(f"{name}_count", [])
        if buckets and not any(lb.get("le") == "+Inf" for lb, _v in buckets):
            raise ValueError(f"histogram {name} missing +Inf bucket")
        for labels, total in counts:
            inf = [v for lb, v in buckets
                   if lb.get("le") == "+Inf"
                   and {k: x for k, x in lb.items() if k != "le"} == labels]
            if inf and inf[0] != total:
                raise ValueError(f"histogram {name} +Inf bucket != _count")
    return samples
