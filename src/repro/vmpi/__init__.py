"""Virtual MPI: a simulated distributed-memory runtime.

The paper's solver runs on Julia ``Distributed.jl`` workers spread over
a supercomputer. Here the *algorithm* is executed faithfully over an
mpi4py-shaped API (``send``/``recv``, ``bcast``, ``gather``,
``allreduce``, ``barrier``, …) while the *runtime* is pluggable
(:mod:`repro.vmpi.backend`):

* every rank has strictly private state — with the default **thread
  backend** each rank is an OS thread and payloads are deep-copied on
  send; with the **process backend** each rank is an OS process of a
  persistent :class:`RankPool` — started once, then serving the
  factorization and every later solve, like the paper's workers — and
  ndarray payloads travel through ``multiprocessing.shared_memory``
  blocks (zero-copy on receive), so compute is GIL-free and wall-clock
  scales with cores;
* a LogP-style simulated clock tracks per-rank time: compute segments
  advance it by the rank's measured CPU time, and a received message
  cannot be consumed before ``sender_time + alpha + beta * bytes``;
* per-rank counters record messages and words sent, so the paper's
  communication-complexity claims (Sec. IV-B) are checked directly —
  and are identical across backends, which only change the physics of
  delivery, never the protocol.

Pick a backend per call (``run_spmd(..., backend="process")``) or
globally (``REPRO_VMPI_BACKEND=process``). Rank processes receive the
program and its arguments by pickling; what cannot be pickled raises
:class:`DispatchEncodeError` before anything is dispatched.
"""

from repro.vmpi.backend import (
    ExecutionBackend,
    RankReport,
    SPMDRun,
    ThreadBackend,
    effective_cpu_count,
    resolve_backend,
)
from repro.vmpi.clock import CostModel, SimClock, INTRA_NODE, INTER_NODE
from repro.vmpi.comm import Comm, DeadlockError
from repro.vmpi.launcher import run_spmd
from repro.vmpi.pool import (
    DispatchEncodeError,
    RankPool,
    active_pools,
    get_pool,
    shutdown_all_pools,
)
from repro.vmpi.process_backend import ProcessBackend, process_backend_available

__all__ = [
    "CostModel",
    "SimClock",
    "INTRA_NODE",
    "INTER_NODE",
    "Comm",
    "DeadlockError",
    "DispatchEncodeError",
    "run_spmd",
    "SPMDRun",
    "RankReport",
    "ExecutionBackend",
    "ThreadBackend",
    "ProcessBackend",
    "RankPool",
    "active_pools",
    "get_pool",
    "shutdown_all_pools",
    "effective_cpu_count",
    "resolve_backend",
    "process_backend_available",
]
