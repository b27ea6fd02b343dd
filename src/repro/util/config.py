"""Environment-driven configuration used by benchmarks and examples.

The benchmark harness regenerates every table/figure of the paper at a
size controlled by ``REPRO_BENCH_SCALE``:

* ``0`` (default) — tiny problems so the full suite runs in CI.
* ``1`` — medium, paper-shaped sweeps (minutes).
* ``2`` — the largest sizes that remain tractable in pure Python.
"""

from __future__ import annotations

import os


def env_int(name: str, default: int) -> int:
    """Read an integer environment variable with a default."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:  # pragma: no cover - defensive
        raise ValueError(f"environment variable {name}={raw!r} is not an int") from exc


def env_float(name: str, default: float) -> float:
    """Read a float environment variable with a default."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        return float(raw)
    except ValueError as exc:  # pragma: no cover - defensive
        raise ValueError(f"environment variable {name}={raw!r} is not a float") from exc


def env_flag(name: str, default: bool = False) -> bool:
    """Read a boolean environment variable (``1/true/yes`` are truthy)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() in {"1", "true", "yes", "on"}


def bench_scale() -> int:
    """Benchmark scale knob; see module docstring."""
    scale = env_int("REPRO_BENCH_SCALE", 0)
    if scale < 0 or scale > 2:
        raise ValueError(f"REPRO_BENCH_SCALE must be 0, 1 or 2; got {scale}")
    return scale


#: execution backends understood by ``repro.vmpi`` (see vmpi.backend)
VMPI_BACKENDS = ("thread", "process", "auto")


def vmpi_backend() -> str:
    """Default execution backend for SPMD runs (``REPRO_VMPI_BACKEND``).

    * ``thread`` (default) — in-process rank threads: deterministic,
      cheap to launch, GIL-serialized compute. Right for tests and
      simulated-time studies.
    * ``process`` — one OS process per rank with shared-memory ndarray
      transport: wall-clock scales with cores. Right for real-time
      benchmarks and large workloads.
    * ``auto`` — pick by the usable-core budget (CPU affinity where
      the platform exposes it — so cpuset-restricted containers are
      treated as the small boxes they are — else ``os.cpu_count()``):
      threads on a single core (where processes are pure overhead),
      processes when real cores are available (and the platform
      supports shared memory).
    """
    raw = os.environ.get("REPRO_VMPI_BACKEND")
    if raw is None or raw.strip() == "":
        return "thread"
    name = raw.strip().lower()
    if name not in VMPI_BACKENDS:
        raise ValueError(
            f"REPRO_VMPI_BACKEND={raw!r} is not one of {'/'.join(VMPI_BACKENDS)}"
        )
    return name


# ----------------------------------------------------------------------
# solve service (repro.service) knobs
# ----------------------------------------------------------------------
def service_cache_bytes() -> int:
    """Factorization-cache byte budget (``REPRO_SERVICE_CACHE_BYTES``).

    The service evicts least-recently-used factorizations once the
    resident bytes exceed this (default 256 MiB). A single entry larger
    than the budget stays resident until displaced — the budget is a
    high-water mark, not a hard per-entry cap.
    """
    n = env_int("REPRO_SERVICE_CACHE_BYTES", 256 * 2**20)
    if n < 0:
        raise ValueError(f"REPRO_SERVICE_CACHE_BYTES must be >= 0, got {n}")
    return n


def service_batch_window_s() -> float:
    """Batching window in seconds (``REPRO_SERVICE_BATCH_WINDOW_MS``).

    The longest a contended batch waits (default 2 ms) for other
    requests against the same factorization before solving. A request
    on a factorization with no concurrent traffic never waits; 0
    disables coalescing. Longer windows raise batch occupancy and
    throughput under concurrency at the cost of per-request latency.
    """
    ms = env_float("REPRO_SERVICE_BATCH_WINDOW_MS", 2.0)
    if ms < 0:
        raise ValueError(f"REPRO_SERVICE_BATCH_WINDOW_MS must be >= 0, got {ms}")
    return ms / 1e3


# ----------------------------------------------------------------------
# resident factorization store (repro.store) knobs
# ----------------------------------------------------------------------
def store_dir() -> str | None:
    """Root directory of the cross-process factorization store
    (``REPRO_STORE_DIR``).

    Tiers 2 and 3 are on exactly when it is set. Unset (default): no
    shared-memory publishing and no disk spill. Set: cache entries are
    published as named shared-memory segments for other processes to
    attach, evicted and shutdown-time entries spill to disk for warm
    restarts, and the directory holds the sidecar indexes, the spill
    files and the cross-process single-flight lockfiles. Created on
    first use.
    """
    raw = os.environ.get("REPRO_STORE_DIR")
    if raw is None or raw.strip() == "":
        return None
    return raw


# ----------------------------------------------------------------------
# observability (repro.obs) knobs
# ----------------------------------------------------------------------
def obs_enabled() -> bool:
    """Whether span tracing is on (``REPRO_OBS``, default off).

    Off, ``repro.obs.trace.span`` returns a shared no-op context
    manager after a single flag read — parity suites pay (almost)
    nothing. Metrics counters are always live; only span *recording*
    is gated. Set before worker processes start so rank workers
    inherit it (the dispatch path also forwards the parent's live
    setting per job).
    """
    return env_flag("REPRO_OBS", False)


def obs_dir() -> str | None:
    """Exit-time observability output directory (``REPRO_OBS_DIR``).

    When set, the process writes into this directory at exit (creating
    it if missing): ``trace.json``, every recorded span as Chrome
    ``trace_event`` JSON (open it in ``chrome://tracing`` or Perfetto),
    when tracing is enabled and recorded spans; and
    ``profile.speedscope.json`` plus collapsed stacks in
    ``profile.folded`` for flamegraph tooling, when the profiler
    collected samples.
    """
    raw = os.environ.get("REPRO_OBS_DIR")
    if raw is None or raw.strip() == "":
        return None
    return raw


def obs_profile_hz() -> float:
    """Sampling-profiler rate in samples/second (``REPRO_OBS_PROFILE_HZ``).

    0 (default) keeps the profiler off. A positive rate starts the
    background sampler at import of :mod:`repro.obs.profiler`; rank
    worker processes inherit the parent's live rate per job through the
    dispatch channel, exactly like the span-tracing flag.
    """
    hz = env_float("REPRO_OBS_PROFILE_HZ", 0.0)
    if hz < 0:
        raise ValueError(f"REPRO_OBS_PROFILE_HZ must be >= 0, got {hz}")
    return hz


def vmpi_start_method() -> str | None:
    """Multiprocessing start-method override (``REPRO_VMPI_START_METHOD``).

    ``None`` (unset) lets the backend pick: fork on Linux, the platform
    default elsewhere. Set ``spawn`` to exercise the pickling-clean
    path that non-fork platforms (macOS, Windows) take, or
    ``forkserver``/``fork`` explicitly.
    """
    raw = os.environ.get("REPRO_VMPI_START_METHOD")
    if raw is None or raw.strip() == "":
        return None
    name = raw.strip().lower()
    if name not in {"fork", "spawn", "forkserver"}:
        raise ValueError(
            f"REPRO_VMPI_START_METHOD={raw!r} is not one of fork/spawn/forkserver"
        )
    return name
