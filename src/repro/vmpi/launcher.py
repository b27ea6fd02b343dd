"""SPMD launcher: run one function on every rank.

``run_spmd(p, fn, *args)`` mirrors ``mpiexec -n p``: it hands each of
``p`` ranks a :class:`~repro.vmpi.comm.Comm` and collects the per-rank
return values plus a :class:`RankReport` of simulated time and
communication counters. *How* the ranks execute — threads in this
process (default) or one pooled OS process per rank with shared-memory
array transport — is delegated to an :mod:`~repro.vmpi.backend`
implementation, selected per call (``backend=``) or globally
(``REPRO_VMPI_BACKEND``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.vmpi.backend import (
    ExecutionBackend,
    SPMDRun,
    adopt_rank_reports,
    resolve_backend,
)
from repro.vmpi.clock import CostModel


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    cost_model: CostModel | None = None,
    timeout: float = 3600.0,
    backend: str | ExecutionBackend | None = None,
) -> SPMDRun:
    """Execute ``fn(comm, *args)`` on ``nranks`` ranks.

    Exceptions on any rank abort the run and re-raise with the failing
    rank identified. ``args`` are shared (read-only by convention; pass
    rank-specific data through scatter instead). ``backend`` picks the
    execution strategy ("thread" or "process"); ``None`` uses the
    configured default. On rank processes ``fn`` and ``args`` travel by
    pickling: a closure, lambda or locally defined class raises
    :class:`~repro.vmpi.pool.DispatchEncodeError` before anything runs.
    """
    return adopt_rank_reports(
        resolve_backend(backend).run(
            nranks,
            fn,
            args,
            cost_model=cost_model,
            timeout=timeout,
        )
    )
