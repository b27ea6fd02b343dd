"""The rank-process lifecycle: a persistent pool of ``p`` workers.

This module is the only place that starts, feeds, collects from and
tears down rank processes. A :class:`RankPool` spawns ``p`` long-lived
workers *once* and then dispatches successive SPMD programs to them —
``factor`` followed by many ``solve`` s through one
:class:`~repro.api.facade.Solver` pays the fork/spawn +
interpreter-warmup cost exactly one time, and the workers keep the
factorization shards they built (:mod:`repro.store.resident`). The
per-rank mailboxes, the shared-memory name registry, and the result
queue all stay alive across dispatches.

Protocol per dispatch (one *job*):

1. The parent packs ``(fn, args, cost_model)`` once
   (bulk arrays — e.g. the ``WorkerResult`` list a seeding dispatch
   ships — go into one *shared* shared-memory segment, mapped zero-copy
   by every worker; a warm solve's right-hand side is not bulk and
   rides the blob) and writes one pre-pickled command blob per rank to
   that rank's command queue. A program, kernel or argument that cannot
   be pickled raises :class:`DispatchEncodeError` here, on every start
   method, before any worker saw the job.
2. Each worker builds a fresh :class:`~repro.vmpi.comm.Comm` over the
   persistent mailboxes, stamped with the job id as the transport
   *epoch*: a message stranded by an earlier job (sent but never
   received) is discarded on receipt — with its segment unlinked —
   instead of corrupting a later program that reuses the same
   (source, tag) pair.
3. Workers run ``fn(comm, *args)``, pack the result (factorization
   dataclasses travel zero-copy, one segment per rank; a solve's slice
   of the solution rides the blob), and pre-pickle
   the outcome — so an unpicklable result is reported as that rank's
   failure instead of killing the worker on its way to the results
   mailbox.
4. The parent collects one outcome per rank, unpacks the results, and
   sweeps the registry: with all workers idle, any registered segment
   that still has a name — the dispatch segment, or an orphan — is
   unlinked, so repeated dispatches leave ``/dev/shm`` exactly as they
   found it.

Failure policy: if every rank reported an outcome the pool survives a
failed job (workers are idle again; mailboxes are drained and stale
messages are epoch-guarded). If ranks are missing — stuck in a receive
that can never complete, or dead — the pool is torn down hard
(terminate + drain + registry sweep) and the caller gets the error;
the next dispatch transparently starts a fresh pool. The registry pipe
is the backstop of that teardown: a rank's messages to a full mailbox
wait in that rank's backlog (:class:`~repro.vmpi.process_backend.Mailbox`),
so a terminated rank can take frames nobody will ever attach with it —
but it wrote their segment names to the registry before it copied the
arrays, so the parent unlinks them once all ranks are gone (on Python
3.13+, where segments are untracked, such orphans would otherwise
persist in /dev/shm until reboot).

Pools are cached process-wide, one per ``(nranks, start_method)``
shape, for the life of the interpreter: a shape's pool
is replaced only when its workers died, and every pool is shut down
cleanly at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue
import time
import traceback
from typing import Any, Callable

from repro.obs import profile, trace
from repro.obs.lockwatch import make_lock
from repro.vmpi.backend import RankReport, SPMDRun, report_from_comm
from repro.vmpi.clock import CostModel
from repro.vmpi.comm import Comm
from repro.vmpi.process_backend import (
    Mailbox,
    ProcessTransport,
    _drain_mailbox,
    pack,
    release_segment,
    unpack,
)

_PICKLE = pickle.HIGHEST_PROTOCOL


class DispatchEncodeError(Exception):
    """The rank program, kernel or an argument could not be pickled.

    Rank processes receive everything by pickling, on every start
    method. Raised *before* any worker saw the job: the pool is
    untouched, nothing is registered or left in ``/dev/shm``, and the
    next dispatch runs normally. Chains the original pickling error as
    ``__cause__``.
    """


def _encode_error(what: str, fn, exc: BaseException) -> DispatchEncodeError:
    name = getattr(fn, "__qualname__", type(fn).__name__)
    return DispatchEncodeError(
        f"{what} {name!r} could not be pickled for dispatch to rank processes ({exc!r}); "
        "define the function or class at module level (closures, lambdas and "
        'locally defined classes cannot be pickled), or run with backend="thread"'
    )


# ----------------------------------------------------------------------
# end of life: what a cohort of rank processes leaves behind
# ----------------------------------------------------------------------
def _ensure_resource_tracker() -> None:
    """Start the parent's resource tracker before launching ranks.

    Pre-3.13 every segment creation REGISTERs with a tracker. If the
    first tracker use happens *inside* a rank, each rank lazily spawns
    its own — and a segment created in rank A but unlinked in rank B
    (the normal lifetime protocol) leaves A's tracker convinced it
    leaked, warning at shutdown. Starting the tracker here makes every
    rank inherit the one shared instance, so REGISTER and UNREGISTER
    pair up no matter which process performs them. On 3.13+ segments
    are created untracked and this is a harmless no-op.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker internals shifted
        pass


def _hold_tracker_lock_across_fork() -> None:
    """Never fork while another thread holds the resource tracker's lock.

    ``fork()`` copies only the calling thread. A rank forked while some
    other thread is inside ``SharedMemory()`` or ``ensure_running()``
    (both take ``multiprocessing.resource_tracker``'s lock) inherits the
    lock held by a thread that does not exist in it, and hangs in its
    first segment creation. Taking the lock before every fork and
    releasing it after, in parent and child, makes the child's copy
    free. A no-op where the lock (a tracker internal) or fork handlers
    do not exist.
    """
    from multiprocessing import resource_tracker

    lock = getattr(getattr(resource_tracker, "_resource_tracker", None), "_lock", None)
    if lock is None or not hasattr(os, "register_at_fork"):
        return
    os.register_at_fork(
        before=lock.acquire, after_in_parent=lock.release, after_in_child=lock.release
    )


_hold_tracker_lock_across_fork()


def _drain_registry(registry, names: set) -> None:
    """Move sender-registered segment names out of the registry pipe."""
    try:
        while not registry.empty():
            names.add(registry.get())
    except (OSError, ValueError, EOFError):  # pragma: no cover - closing
        pass


def _unlink_registered(names: set) -> None:
    """Unlink every registered segment that still has a name.

    Segments that were delivered normally are already unlinked by their
    receiver (or by the mailbox drain) and are skipped; anything left
    is an orphan of an abnormal teardown.
    """
    for name in names:
        release_segment(name)


def _teardown_procs(procs: list, mailboxes: list, results_q, registry, registered: set) -> None:
    """Join/terminate rank processes and reclaim every transport resource.

    Pre-drain mailboxes (lets the ranks' writer threads finish their
    backlogs + frees shm), give ranks a short grace to exit, terminate
    survivors (stuck ranks must not wait out receive timeouts), drain +
    close every mailbox, then sweep the registry so blocks stranded in
    a killed rank's backlog or in never-drained pipes are unlinked.
    """
    for q in mailboxes:
        _drain_mailbox(q)
    for pr in procs:
        pr.join(timeout=1.0)
    for pr in procs:
        if pr.is_alive():
            pr.terminate()
    for pr in procs:
        if pr.is_alive():
            pr.join(timeout=10.0)
    for q in [*mailboxes, results_q]:
        q.stop_waiting()
        _drain_mailbox(q)
        q.close()
    _drain_registry(registry, registered)
    _unlink_registered(registered)
    registry.close()


# ----------------------------------------------------------------------
# the worker
# ----------------------------------------------------------------------
def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def _pool_worker_main(
    rank: int,
    cmd_q,
    results_q,
    mailboxes: list,
    registry,
) -> None:
    """Entry point of one persistent rank worker (module-level: must be
    importable under the spawn start method). One job per loop turn; the
    job body lives in :func:`_execute_job` so its locals — the decoded
    args, the program's result, the Comm — die when it returns, instead
    of pinning factorization-sized memory while the worker idles on the
    next command."""
    trace.reset_in_child()  # fork children inherit the parent's span buffer
    profile.reset_in_child()  # ... and the parent's profiler samples
    while True:
        try:
            blob = cmd_q.get()
        except (EOFError, OSError):  # pragma: no cover - parent vanished
            return
        cmd = pickle.loads(blob)
        if cmd[0] == "stop":
            return
        results_q.put(_execute_job(rank, cmd, mailboxes, registry))


def _execute_job(rank: int, cmd, mailboxes: list, registry) -> bytes:
    """Run one dispatched SPMD program; returns the pre-pickled outcome.

    The command's payload arrives packed, opened *here* inside the
    failure-reporting try: unpickling the program triggers
    module imports in this process (by-reference functions under spawn),
    and an import/decode error must surface as a clean rank failure —
    traceback preserved, pool kept alive — not a dead worker.
    """
    _, job_id, payload, trace_on, profile_hz = cmd
    # the dispatcher forwards its live tracing flag per job, so tracing
    # toggled after the pool started (or enabled without REPRO_OBS in
    # the environment, under the spawn start method) still reaches
    # long-lived workers
    trace.set_enabled(trace_on)
    trace.clear()
    # the parent's live profiling rate travels the same way: the worker
    # profiles only while a job runs (an idle worker would accumulate
    # unattributable samples between jobs) and ships its table back
    profile.clear()
    if profile_hz > 0:
        profile.start(profile_hz)
    packed = None
    try:
        fn, args, cost_model = unpack(payload)
        transport = ProcessTransport(mailboxes, registry=registry, epoch=job_id)
        comm = Comm(transport, rank, cost_model=cost_model)
        with trace.track(f"rank{rank}"), trace.span("vmpi.rank", rank=rank, job=job_id):
            result = fn(comm, *args)
        report = report_from_comm(comm)
        report.spans = trace.drain()
        if profile_hz > 0:
            profile.stop()
            report.profile = profile.drain_table()
        packed = pack(result, registry)
        return pickle.dumps((rank, job_id, True, packed, report), protocol=_PICKLE)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        if profile_hz > 0:
            profile.stop()
        if packed is not None:
            release_segment(packed.segment)
        return pickle.dumps(
            (rank, job_id, False, _describe(exc), None), protocol=_PICKLE
        )


class RankPool:
    """``p`` long-lived rank processes dispatching SPMD programs."""

    def __init__(self, nranks: int, start_method: str):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = int(nranks)
        self.start_method = start_method
        #: total processes ever started by this pool (the spawn probe:
        #: stays at ``nranks`` across any number of dispatches)
        self.spawn_count = 0
        #: dispatches completed or failed through this pool
        self.jobs_run = 0
        #: worker-cohort epoch: bumped every (re)spawn. Holders of
        #: worker-resident state (repro.store) compare it to detect that
        #: the ranks they seeded are gone and must be re-seeded.
        self.generation = 0
        self._job_id = 0
        self._procs: list | None = None
        self._registered: set = set()
        # one job at a time per pool: the mailboxes/result queue carry a
        # single SPMD program, so concurrent run_spmd calls from
        # different threads serialize here. RLock because run() calls
        # ensure_started()/shutdown() internally.
        self._lock = make_lock("vmpi.pool", reentrant=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Workers are up and able to take a dispatch."""
        return self._procs is not None and all(pr.is_alive() for pr in self._procs)

    @property
    def never_started(self) -> bool:
        """Freshly constructed — distinct from a pool whose workers died."""
        return self._procs is None and self.spawn_count == 0

    def ensure_started(self) -> None:
        """Spawn the workers (or respawn after a hard shutdown/death)."""
        with self._lock:
            self._ensure_started_locked()

    def _ensure_started_locked(self) -> None:
        if self.alive:
            return
        # if a worker died, reap the survivors and sweep what the cohort
        # registered before rebuilding from scratch (a no-op otherwise)
        self.shutdown()
        import multiprocessing

        _ensure_resource_tracker()
        ctx = multiprocessing.get_context(self.start_method)
        self._mailboxes = [Mailbox(ctx) for _ in range(self.nranks)]
        self._cmd_qs = [ctx.SimpleQueue() for _ in range(self.nranks)]
        self._results_q = Mailbox(ctx)
        # feeder-less pipe: shm names written by a rank survive its death
        self._registry_q = ctx.SimpleQueue()
        self._registered = set()
        # self._procs is assigned only once every rank is up: the
        # registry reads liveness lock-free, and a pool in the middle of
        # its first spawn must read as never started, not as dead
        procs = [
            ctx.Process(
                target=_pool_worker_main,
                args=(
                    r,
                    self._cmd_qs[r],
                    self._results_q,
                    self._mailboxes,
                    self._registry_q,
                ),
                name=f"vmpi-pool-rank-{r}",
                daemon=True,
            )
            for r in range(self.nranks)
        ]
        started: list = []
        try:
            for pr in procs:
                pr.start()
                started.append(pr)
        except BaseException:
            # partial start (e.g. fork EAGAIN on a loaded box): reap the
            # ranks that did come up — leaving them would orphan daemon
            # workers, and a later shutdown() would fail joining the
            # never-started Process objects
            self.spawn_count += len(started)
            self._procs = started
            self.shutdown()
            raise
        self._procs = procs
        self.spawn_count += len(procs)
        self.generation += 1

    def shutdown(self) -> None:
        """Stop the workers and reclaim every transport resource.

        The pool keeps its registry slot: a later dispatch through this
        object respawns it in place, and :func:`get_pool` replaces it.
        """
        with self._lock:
            if self._procs is None:
                return
            procs, self._procs = self._procs, None
            stop = pickle.dumps(("stop",), protocol=_PICKLE)
            for q in self._cmd_qs:
                try:
                    q.put(stop)
                except (OSError, ValueError):  # pragma: no cover - closing
                    pass
            _teardown_procs(
                procs, self._mailboxes, self._results_q, self._registry_q, self._registered
            )
            self._registered = set()
            for q in self._cmd_qs:
                q.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        args: tuple,
        *,
        cost_model: CostModel | None = None,
        timeout: float = 3600.0,
    ) -> SPMDRun:
        """Dispatch one SPMD program to the resident workers.

        Serialized per pool: the persistent mailboxes and result queue
        carry exactly one job, so a second thread dispatching through
        the same pool blocks until the first job completes.
        """
        with self._lock:
            return self._run_locked(fn, args, cost_model=cost_model, timeout=timeout)

    def _run_locked(
        self,
        fn: Callable[..., Any],
        args: tuple,
        *,
        cost_model: CostModel | None,
        timeout: float,
    ) -> SPMDRun:
        self.ensure_started()
        # probe the program itself before touching the (possibly huge)
        # args: a closure/lambda fn fails cheaply here, before any array
        # is copied into shm
        try:
            pickle.dumps((fn, cost_model), protocol=_PICKLE)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise _encode_error("rank program", fn, exc) from exc
        # args are shared read-only across ranks (the run_spmd contract;
        # the thread backend shares the very same objects), so pack
        # them ONCE into a multi-receiver segment: every rank maps the
        # same copy, and a distributed solve re-shipping the whole
        # factorization costs one memcpy instead of p. The payload stays
        # a nested blob: the outer control tuple is always loadable in
        # the worker, the payload is unpickled inside the worker's
        # failure-reporting path (see _execute_job)
        try:
            with trace.span("vmpi.encode", ranks=self.nranks) as esp:
                payload = pack(
                    (fn, args, cost_model), self._registry_q, shared=True
                )
                esp.set(
                    bytes=payload.nbytes,
                    shm_blocks=int(payload.segment is not None),
                    arrays=len(payload.spans) + len(payload.inline),
                )
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise _encode_error("an argument of rank program", fn, exc) from exc
        # the job exists only once its payload is dispatchable
        self._job_id += 1
        self.jobs_run += 1
        job = self._job_id
        blob = pickle.dumps(
            ("run", job, payload, trace.enabled, profile.active_hz),
            protocol=_PICKLE,
        )
        try:
            with trace.span("vmpi.dispatch", ranks=self.nranks, job=job):
                for rank in range(self.nranks):
                    self._cmd_qs[rank].put(blob)
        except Exception:
            # a partially dispatched job leaves some ranks blocked in
            # receives that can never complete — tear down hard
            self.shutdown()
            raise
        with trace.span("vmpi.collect", ranks=self.nranks, job=job):
            outcomes = self._collect(job, timeout)
        failures = [o for o in outcomes.values() if not o[2]]
        if failures:
            if len(outcomes) < self.nranks:
                # ranks still missing are stuck in receives that can
                # never complete: tear the pool down hard
                self.shutdown()
            else:
                # every rank reported, so the workers are idle again:
                # the pool survives a clean failure. Drain stranded
                # messages and sweep; segments of the never-unpacked
                # successful results are reclaimed by the registry sweep
                for q in self._mailboxes:
                    _drain_mailbox(q)
                self._sweep()
            rank, _job, _ok, desc, _rep = min(failures, key=lambda o: o[0])
            raise RuntimeError(f"rank {rank} failed: {desc}")
        results = [unpack(outcomes[r][3]) for r in range(self.nranks)]
        reports: list[RankReport] = [outcomes[r][4] for r in range(self.nranks)]
        self._sweep()
        return SPMDRun(results, reports)

    def _collect(self, job: int, timeout: float) -> dict[int, tuple]:
        """One outcome per rank; stops early (1s grace) once a rank fails."""
        outcomes: dict[int, tuple] = {}
        deadline = time.monotonic() + timeout
        fail_grace: float | None = None
        while len(outcomes) < self.nranks:
            _drain_registry(self._registry_q, self._registered)
            now = time.monotonic()
            if fail_grace is not None and now > fail_grace:
                return outcomes
            if now > deadline:
                pending = sorted(set(range(self.nranks)) - set(outcomes))
                self.shutdown()
                raise TimeoutError(
                    f"SPMD run did not finish within {timeout}s (ranks {pending} alive)"
                )
            try:
                blob = self._results_q.get(timeout=0.2)
            except queue.Empty:
                dead = [
                    r
                    for r, pr in enumerate(self._procs)
                    if r not in outcomes and pr.exitcode is not None
                ]
                if not dead:
                    continue
                try:  # the outcome may still be in flight; one grace read
                    blob = self._results_q.get(timeout=1.0)
                except queue.Empty:
                    code = self._procs[dead[0]].exitcode
                    self.shutdown()
                    raise RuntimeError(
                        f"pool rank {dead[0]} died with exit code {code}"
                    ) from None
            item = pickle.loads(blob)
            if item[1] != job:  # pragma: no cover - job aborted earlier
                if item[2]:
                    release_segment(item[3].segment)
                continue
            outcomes[item[0]] = item
            if not item[2] and fail_grace is None:
                fail_grace = time.monotonic() + 1.0
        return outcomes

    def _sweep(self) -> None:
        """Unlink orphaned shm blocks (workers must be idle).

        Every block delivered normally was already unlinked by its
        receiver, so attaching fails and it is skipped; anything still
        named is stranded — a message nobody received, or a result of a
        failed job — and is reclaimed here.
        """
        _drain_registry(self._registry_q, self._registered)
        _unlink_registered(self._registered)
        self._registered = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "down"
        return (
            f"RankPool(nranks={self.nranks}, start_method={self.start_method!r}, "
            f"{state}, spawns={self.spawn_count}, jobs={self.jobs_run})"
        )


# ----------------------------------------------------------------------
# process-wide pool registry: one pool per shape until exit
# ----------------------------------------------------------------------
_POOLS: dict[tuple, RankPool] = {}
#: guards _POOLS only, and is a leaf: nothing is called while holding
#: it, and no pool method takes it. A dead pool found under it is torn
#: down after releasing it.
_POOLS_LOCK = make_lock("vmpi.pool.registry")
_ATEXIT_REGISTERED = False


def get_pool(nranks: int, start_method: str) -> RankPool:
    """The shared pool for this shape, started."""
    global _ATEXIT_REGISTERED
    key = (int(nranks), start_method)
    dead = None
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        # reuse a live pool AND one another thread has not finished
        # starting (ensure_started below is idempotent)
        if pool is None or not (pool.alive or pool.never_started):
            dead = pool
            pool = _POOLS[key] = RankPool(nranks, start_method)
        if not _ATEXIT_REGISTERED:
            # registered after multiprocessing's own atexit hook, so
            # (LIFO) this runs first, while worker teardown still works
            atexit.register(shutdown_all_pools)
            _ATEXIT_REGISTERED = True
    if dead is not None:
        # reap a killed cohort's survivors and unlink the shm names it
        # registered; a no-op for a pool that was already shut down
        dead.shutdown()
    pool.ensure_started()
    return pool


def active_pools() -> list[RankPool]:
    """Snapshot of the cached pools (introspection/tests)."""
    with _POOLS_LOCK:
        return list(_POOLS.values())


def pools_health() -> list[dict]:
    """Liveness rollup of every cached pool (the ``/debug`` feed).

    Lock-free over each pool's worker list: a pool mid-(re)spawn or
    mid-teardown may report a transient mix, which a dashboard that
    re-reads it on every render tolerates by design.
    """
    out = []
    for pool in active_pools():
        procs = pool._procs
        alive = 0
        for pr in procs or ():
            try:
                alive += 1 if pr.is_alive() else 0
            except ValueError:  # pragma: no cover - process already closed
                pass
        out.append({
            "nranks": pool.nranks,
            "start_method": pool.start_method,
            "workers": len(procs) if procs is not None else 0,
            "alive": alive,
            "jobs_run": pool.jobs_run,
            "generation": pool.generation,
        })
    return out


def shutdown_all_pools() -> None:
    """Shut down every cached pool (interpreter-exit hook)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()
