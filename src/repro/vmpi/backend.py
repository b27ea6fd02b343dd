"""Execution backends: how the ranks of an SPMD run actually execute.

Two interchangeable implementations sit behind
:func:`repro.vmpi.launcher.run_spmd`:

* :class:`ThreadBackend` — every rank is an OS thread in this process.
  Deterministic, cheap to launch, and payloads are deep-copied on send
  so rank state stays private; the GIL serializes rank *compute*, so
  wall-clock does not scale (simulated time still does). This is the
  default and what the test suite runs on.
* :class:`~repro.vmpi.process_backend.ProcessBackend` — every rank is
  a long-lived OS process of a :class:`~repro.vmpi.pool.RankPool`,
  started once and reused by every later run; ``np.ndarray`` payloads
  travel through ``multiprocessing.shared_memory`` blocks (one producer
  copy, zero receiver copies) and everything else — the rank program
  included — is pickled. Rank compute runs truly in parallel, so
  wall-clock scales with cores.

Both backends drive the exact same :class:`~repro.vmpi.comm.Comm`
protocol code, so message/byte counters and all computed results are
identical — only the physical execution differs. Select a backend with
the ``backend=`` argument to ``run_spmd``/``parallel_srs_factor`` or
globally with ``REPRO_VMPI_BACKEND=thread|process``.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import profile, trace
from repro.util.config import vmpi_backend
from repro.vmpi.clock import CostModel
from repro.vmpi.comm import Comm
from repro.vmpi.transport import Transport


@dataclass
class RankReport:
    """Per-rank outcome of an SPMD run."""

    rank: int
    sim_time: float
    compute_time: float
    other_time: float
    messages_sent: int
    bytes_sent: int
    messages_received: int
    bytes_received: int
    #: spans recorded on this rank while tracing was enabled; rank
    #: processes ship them back over the result channel, and
    #: :func:`adopt_rank_reports` merges them into the parent tracer
    #: (empty when tracing is off, and for the thread backend, whose
    #: spans land in the parent tracer directly)
    spans: list = field(default_factory=list)
    #: profiler sample table recorded on this rank while the parent was
    #: profiling — shipped and adopted exactly like ``spans`` (empty for
    #: the thread backend, whose rank threads the parent profiler
    #: samples in-process)
    profile: dict = field(default_factory=dict)


@dataclass
class SPMDRun:
    """Results and reports of all ranks."""

    results: list[Any]
    reports: list[RankReport]

    @property
    def elapsed(self) -> float:
        """Simulated parallel wall time: the slowest rank's clock."""
        return max(r.sim_time for r in self.reports)

    @property
    def compute(self) -> float:
        """Simulated compute portion of the critical path (``t_comp``)."""
        slowest = max(self.reports, key=lambda r: r.sim_time)
        return slowest.compute_time

    @property
    def other(self) -> float:
        """Communication + overhead on the critical path (``t_other``)."""
        slowest = max(self.reports, key=lambda r: r.sim_time)
        return slowest.other_time

    @property
    def total_messages(self) -> int:
        return sum(r.messages_sent for r in self.reports)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.reports)

    def max_messages_per_rank(self) -> int:
        return max(r.messages_sent for r in self.reports)

    def max_bytes_per_rank(self) -> int:
        return max(r.bytes_sent for r in self.reports)


def adopt_rank_reports(run: SPMDRun) -> SPMDRun:
    """Merge what rank processes shipped back on their reports — spans
    and profiler samples, on per-rank tracks — into this process's
    tracer and profiler, leaving the reports empty of both. Every
    dispatch whose reports reach a caller goes through here."""
    for report in run.reports:
        if report.spans:
            trace.adopt(report.spans)
            report.spans = []
        if report.profile:
            profile.adopt(report.profile)
            report.profile = {}
    return run


def report_from_comm(comm: Comm) -> RankReport:
    """Snapshot a rank's clock and counters into a :class:`RankReport`."""
    return RankReport(
        rank=comm.rank,
        sim_time=comm.clock.local_time,
        compute_time=comm.clock.compute_time,
        other_time=comm.clock.other_time,
        messages_sent=comm.counters.messages_sent,
        bytes_sent=comm.counters.bytes_sent,
        messages_received=comm.counters.messages_received,
        bytes_received=comm.counters.bytes_received,
    )


class ExecutionBackend(ABC):
    """Strategy for executing ``fn(comm, *args)`` on every rank."""

    #: short name used by config / benchmarks ("thread", "process")
    name: str

    @abstractmethod
    def run(
        self,
        nranks: int,
        fn: Callable[..., Any],
        args: tuple,
        *,
        cost_model: CostModel | None = None,
        timeout: float = 3600.0,
    ) -> SPMDRun:
        """Execute the SPMD program and collect per-rank results/reports."""


class ThreadBackend(ExecutionBackend):
    """One daemon thread per rank, in-process mailbox transport."""

    name = "thread"

    def run(
        self,
        nranks: int,
        fn: Callable[..., Any],
        args: tuple,
        *,
        cost_model: CostModel | None = None,
        timeout: float = 3600.0,
    ) -> SPMDRun:
        transport = Transport(nranks)
        comms = [Comm(transport, r, cost_model=cost_model) for r in range(nranks)]
        results: list[Any] = [None] * nranks
        errors: list[tuple[int, BaseException]] = []

        def worker(rank: int) -> None:
            try:
                # spans from rank threads land in the parent tracer
                # directly, labeled with a per-rank track
                with trace.track(f"rank{rank}"), trace.span("vmpi.rank", rank=rank):
                    results[rank] = fn(comms[rank], *args)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append((rank, exc))

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"vmpi-rank-{r}", daemon=True)
            for r in range(nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
            if t.is_alive():
                raise TimeoutError(
                    f"SPMD run did not finish within {timeout}s ({t.name} alive)"
                )
        if errors:
            rank, exc = errors[0]
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc

        return SPMDRun(results, [report_from_comm(c) for c in comms])


def effective_cpu_count() -> int:
    """Cores this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the cgroup/cpuset: a
    container pinned to one core of a 64-core host would look
    64-core. CPU affinity (``os.sched_getaffinity``) reflects the real
    budget where the platform exposes it (Linux); elsewhere fall back
    to the machine count.
    """
    import os

    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def auto_backend_name() -> str:
    """The backend ``auto`` resolves to: thread vs process by core budget.

    On a single usable core the process backend is pure overhead (fork +
    pickle with no parallel compute to win back), so ``auto`` keeps the
    deterministic thread backend there and switches to processes as
    soon as more cores are available and shared memory works. The core
    budget honors CPU affinity, so a cpuset-restricted container is
    treated as the small box it effectively is.
    """
    if effective_cpu_count() > 1:
        from repro.vmpi.process_backend import process_backend_available

        if process_backend_available():
            return "process"
    return "thread"


def resolve_backend(spec: str | ExecutionBackend | None = None) -> ExecutionBackend:
    """Turn a backend spec into a backend instance.

    ``None`` falls back to the configured default (the
    ``REPRO_VMPI_BACKEND`` environment variable, ``thread`` if unset).
    Strings name a built-in backend (``auto`` picks thread vs process
    by core count); instances pass through unchanged.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    # normalize explicit strings the same way the env path does
    # (empty/blank falls back to the configured default, like an unset var)
    name = (spec.strip().lower() or vmpi_backend()) if isinstance(spec, str) else vmpi_backend()
    if name == "auto":
        name = auto_backend_name()
    if name == "thread":
        return ThreadBackend()
    if name == "process":
        from repro.vmpi.process_backend import ProcessBackend, process_backend_available

        if not process_backend_available():
            raise RuntimeError(
                "the 'process' execution backend is unavailable on this platform "
                "(multiprocessing.shared_memory could not allocate); "
                "use REPRO_VMPI_BACKEND=thread"
            )
        return ProcessBackend()
    raise ValueError(
        f"unknown execution backend {name!r} (expected 'thread', 'process', or 'auto')"
    )
