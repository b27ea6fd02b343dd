"""Process-parallel execution backend with shared-memory array transport.

Every rank is an OS process, so rank compute runs truly in parallel
(no GIL). Messages travel through per-rank ``multiprocessing`` queues
as a :class:`Packed` pair: a pickle protocol-5 stream, and — when the
message holds arrays of at least ``REPRO_VMPI_SHM_MIN_BYTES`` — **one**
``multiprocessing.shared_memory`` segment into which :func:`pack` lays
all of those arrays at aligned offsets. The sender pays one segment
creation and one copy per array; the receiver maps the segment once and
:func:`unpack` rebuilds every array as a view of it *without copying*.
Small arrays and control data (tags, box coordinates, op logs) ride the
pickle stream, and a message with no large array creates no segment.

Lifetime protocol for a segment: the sender creates it, writes its name
to the registry pipe (below), copies the arrays in, and closes its
handle. A point-to-point segment has exactly one receiver, which
attaches, unlinks the name at once (POSIX keeps the mapping alive until
the last handle closes) and ties the handle to the one ``uint8`` array
every decoded array is a view of: the mapping closes when the last
decoded array dies, so resident shared memory tracks the receiver's
working set, not total traffic. A *shared* segment (pool dispatch
arguments, store entries) is attached by every reader and unlinked by
its owner — the dispatcher's post-job sweep, the store's last live
holder. Mailboxes are drained on shutdown so segments of never-received
messages are still unlinked.

As a backstop for *abnormal* teardown — a terminated rank whose
queue-feeder thread still buffered messages nobody will ever attach —
every sender also registers the name of each segment it creates on a
feeder-less ``SimpleQueue`` (a synchronous pipe write made *before* the
copy, so the name survives the sender's death); the parent drains it
while collecting results and unlinks whatever still exists once all
ranks are gone. Without this, on Python 3.13+ (where segments are
created untracked) such orphans persist in /dev/shm until reboot.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import time
import traceback
import weakref
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.obs import BYTES_BUCKETS, REGISTRY, profile, trace
from repro.util.config import vmpi_pool, vmpi_shm_min_bytes, vmpi_start_method
from repro.vmpi.backend import ExecutionBackend, RankReport, SPMDRun, report_from_comm
from repro.vmpi.clock import CostModel
from repro.vmpi.comm import Comm
from repro.vmpi.transport import Message

_SHM_BYTES = REGISTRY.counter(
    "repro_vmpi_shm_bytes_total",
    "Bytes shipped through shared-memory blocks by the process backend",
)
_SHM_BLOCK_BYTES = REGISTRY.histogram(
    "repro_vmpi_shm_block_bytes",
    "Size distribution of shared-memory segments (one per message holding large arrays)",
    buckets=BYTES_BUCKETS,
)

#: arrays start on cache-line boundaries inside a segment
_ALIGN = 64


# ----------------------------------------------------------------------
# shared-memory segments
# ----------------------------------------------------------------------
def _close_when_collected(shm) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a rogue export outlived the arrays
        pass


def _create_shm(nbytes: int):
    """Allocate a segment whose lifetime crosses processes.

    On 3.13+ tracking is disabled outright (the creator is not the
    destroyer, which the resource tracker cannot express). Before that,
    the fork start method means every rank shares the parent's tracker
    process, so the creator's implicit REGISTER is balanced by the
    receiver's ``unlink()`` UNREGISTER and no manual bookkeeping is
    needed; segments orphaned by a crash get cleaned (with a warning) at
    tracker shutdown.
    """
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(create=True, size=nbytes, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
    return shm


def _attach_shm(name: str):
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: attaching never registers, nothing to undo
        shm = shared_memory.SharedMemory(name=name)
    return shm


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


class Packed(NamedTuple):
    """Wire form of one message: a pickle stream and at most one segment.

    ``spans`` lists ``(offset, nbytes)`` of every array laid into the
    segment, in the order the pickle stream asks for them. ``shared``
    switches the lifetime protocol: the default (point-to-point message
    payloads, rank results) is exactly-one-receiver — :func:`unpack`
    unlinks on attach. A shared segment (pool dispatch args, which
    ``run_spmd`` documents as shared read-only across ranks; store
    entries) is attached by *every* reader without unlinking; its owner
    reclaims the name.
    """

    blob: bytes
    segment: str | None = None
    spans: tuple = ()
    shared: bool = False

    @property
    def shm_nbytes(self) -> int:
        """Array bytes held in the segment (alignment padding excluded)."""
        return sum(n for _, n in self.spans)


def pack(obj: Any, min_bytes: int, registry=None, *, shared: bool = False) -> Packed:
    """Snapshot ``obj`` as a pickle stream plus one shared-memory segment.

    Pickle protocol 5 does the walk: every C- or F-contiguous ndarray
    anywhere in ``obj`` — containers, dataclasses, plain classes such as
    :class:`~repro.linalg.lu.PartialLU` — is offered out-of-band, with
    dtype, shape, order and writability carried by the stream, and an
    array that appears twice is sent once. Of those, flat numeric
    buffers of at least ``min_bytes`` go into the segment; the choice
    depends only on the array's properties, never on a runtime failure:
    0-byte and 0-d arrays, arrays below ``min_bytes`` and structured
    dtypes stay in the stream, as do the arrays pickle never offers
    (object dtypes, and non-contiguous views, which travel as one
    contiguous copy). ``obj`` is never mutated.

    The stream is complete before the segment exists, so a pickling
    failure leaves nothing behind; the name goes into ``registry``
    (when given) before the first byte is copied, so a crash or
    ``terminate()`` mid-copy leaves the segment reclaimable; a failing
    copy unlinks it.
    """
    buffers: list = []

    def keep_in_stream(pb) -> bool:
        view = memoryview(pb)
        if view.nbytes < max(min_bytes, 1) or view.ndim == 0 or view.format.startswith("T{"):
            return True
        buffers.append(pb.raw())
        return False  # pickle's contract: falsy = out-of-band

    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL, buffer_callback=keep_in_stream)
    if not buffers:
        return Packed(blob)
    spans, size = [], 0
    for buf in buffers:
        spans.append((size, buf.nbytes))
        size += -(-buf.nbytes // _ALIGN) * _ALIGN
    shm = _create_shm(size)
    try:
        if registry is not None:
            registry.put(shm.name)
        for (offset, nbytes), buf in zip(spans, buffers):
            shm.buf[offset : offset + nbytes] = buf
    except BaseException:
        shm.unlink()
        raise
    finally:
        shm.close()
    packed = Packed(blob, shm.name, tuple(spans), shared)
    _SHM_BYTES.inc(packed.shm_nbytes)
    _SHM_BLOCK_BYTES.observe(size)
    return packed


def unpack(packed: Packed) -> Any:
    """Rebuild the object :func:`pack` took, arrays mapped zero-copy.

    The segment is attached once and wrapped in one ``uint8`` array; the
    pickle stream turns slices of it into the (writable) arrays, so
    every decoded array is a view whose base chain ends at that one
    array, and a ``weakref.finalize`` on it closes the mapping when the
    last of them is collected. The decoded object graph belongs
    exclusively to the caller.
    """
    if packed.segment is None:
        return pickle.loads(packed.blob)
    shm = _attach_shm(packed.segment)
    if not packed.shared:
        try:
            shm.unlink()  # name released; mapping lives while the handle does
        except FileNotFoundError:  # pragma: no cover - duplicate cleanup
            pass
    whole = np.ndarray((shm.size,), dtype=np.uint8, buffer=shm.buf)
    weakref.finalize(whole, _close_when_collected, shm)
    return pickle.loads(packed.blob, buffers=[whole[o : o + n] for o, n in packed.spans])


def release_segment(name: str | None) -> None:
    """Unlink the segment of an undelivered :class:`Packed` (if it has one)."""
    if name is None:
        return
    try:
        shm = _attach_shm(name)
    except FileNotFoundError:
        return
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - receiver race
        pass
    shm.close()


def _drain_mailbox(q) -> None:
    """Throw away queued messages, unlinking their segments."""
    while True:
        try:
            item = q.get_nowait()
        except (queue.Empty, OSError, ValueError):
            return
        # (epoch, Packed) is the mailbox wire format; result-queue items
        # are left to the registry sweep
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], Packed):
            release_segment(item[1].segment)


def _drain_registry(registry, names: set) -> None:
    """Move sender-registered segment names out of the registry pipe."""
    try:
        while not registry.empty():
            names.add(registry.get())
    except (OSError, ValueError, EOFError):  # pragma: no cover - closing
        pass


def _teardown_procs(procs: list, mailboxes: list, results_q, registry, registered: set) -> None:
    """Join/terminate rank processes and reclaim every transport resource.

    The shared end-of-life sequence of the per-call backend and the
    pool: pre-drain mailboxes (unblocks child queue feeders + frees
    shm), give ranks a short grace to exit, terminate survivors (stuck
    ranks must not wait out receive timeouts), drain + close every
    queue, then sweep the registry so blocks stranded in killed feeders
    or never-drained pipes are unlinked.
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
        _drain_mailbox(q)
        q.close()
        q.join_thread()
    _drain_registry(registry, registered)
    _unlink_registered(registered)
    registry.close()


def _unlink_registered(names: set) -> None:
    """Unlink every registered segment that still has a name.

    Segments that were delivered normally are already unlinked by their
    receiver (or by :func:`_drain_mailbox`) and are skipped; anything
    left is an orphan of an abnormal teardown.
    """
    for name in names:
        release_segment(name)


# ----------------------------------------------------------------------
# transport + backend
# ----------------------------------------------------------------------
class ProcessTransport:
    """Per-rank ``multiprocessing`` queues carrying :class:`Packed` messages.

    Process isolation makes deep-copying payloads on ``put`` redundant,
    hence ``needs_copy = False`` (:class:`~repro.vmpi.comm.Comm` skips
    ``sanitize``). Buffered-send semantics still require snapshotting
    the payload *at put time*: :func:`pack` copies large arrays into the
    message's segment and pickles the remainder synchronously, rather
    than lazily in the queue's feeder thread — otherwise a sender
    mutating a small array after ``send`` would leak the mutation to
    the receiver.

    ``epoch`` stamps every message on the wire. Long-lived pool workers
    bump it per dispatched job, so a message stranded by one SPMD
    program (sent but never received) can never be matched by a *later*
    program reusing the same (source, tag) pair — stale messages are
    discarded on receipt and their segment unlinked. Per-call
    backends use the constant epoch 0 on both sides.
    """

    needs_copy = False

    def __init__(self, mailboxes: list, min_shm_bytes: int, registry=None, epoch: int = 0):
        self.nranks = len(mailboxes)
        self._mailboxes = mailboxes
        self._min_shm_bytes = int(min_shm_bytes)
        self._registry = registry
        self.epoch = int(epoch)

    def put(self, message: Message) -> None:
        if not (0 <= message.dest < self.nranks):
            raise ValueError(f"invalid destination rank {message.dest}")
        packed = pack(message, self._min_shm_bytes, self._registry)
        self._mailboxes[message.dest].put((self.epoch, packed))

    def get(self, rank: int, timeout: float) -> Message:
        # one overall deadline: discarding stale-epoch strays must not
        # restart the clock, or a deadlocked program would wait
        # (strays + 1) x timeout instead of timeout
        deadline = time.monotonic() + timeout
        with trace.span("vmpi.recv", rank=rank) as sp:
            while True:
                remaining = max(deadline - time.monotonic(), 0.0)
                epoch, packed = self._mailboxes[rank].get(timeout=remaining)
                if epoch != self.epoch:  # stranded by an earlier pool job
                    release_segment(packed.segment)
                    continue
                msg = unpack(packed)
                sp.set(source=msg.source, bytes=len(packed.blob))
                return msg


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def _rank_main(
    rank: int,
    fn: Callable[..., Any],
    args: tuple,
    mailboxes: list,
    results_q,
    cost_model: CostModel | None,
    copy_payloads: bool,
    min_shm_bytes: int,
    registry=None,
    trace_on: bool = False,
    profile_hz: float = 0.0,
) -> None:
    """Entry point of one rank process."""
    # adopt the parent's live tracing state and start from a clean span
    # buffer — a fork child inherits the parent's recorded spans, which
    # must not be shipped back (the parent already has them)
    trace.set_enabled(trace_on)
    trace.reset_in_child()
    profile.reset_in_child()
    if profile_hz > 0:
        profile.start(profile_hz)
    transport = ProcessTransport(mailboxes, min_shm_bytes, registry=registry)
    comm = Comm(transport, rank, cost_model=cost_model, copy_payloads=copy_payloads)
    packed = None
    try:
        with trace.track(f"rank{rank}"), trace.span("vmpi.rank", rank=rank):
            result = fn(comm, *args)
        report = report_from_comm(comm)
        # spans recorded on this rank ride the pickle side of the result
        # channel; run_spmd adopts them into the parent tracer
        report.spans = trace.drain()
        if profile_hz > 0:
            profile.stop()
            report.profile = profile.drain_table()
        # results are packed like messages: factorization products
        # (WorkerResult trees of BoxRecord/PartialLU arrays) travel
        # zero-copy in one segment, leaving only a control-message-sized
        # pickle on the result queue
        packed = pack(result, min_shm_bytes, registry)
        results_q.put((rank, True, packed, report))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        if packed is not None:
            release_segment(packed.segment)
        results_q.put((rank, False, _describe(exc), None))
    finally:
        _drain_mailbox(mailboxes[rank])


_AVAILABLE: bool | None = None


def process_backend_available() -> bool:
    """True when this platform can actually allocate shared memory.

    Configuration errors — an invalid or platform-unavailable
    ``REPRO_VMPI_START_METHOD`` — propagate as :class:`ValueError`
    instead of being cached as "platform unavailable": a typo'd env var
    must not masquerade as a missing shared-memory implementation (or
    silently demote ``auto`` to the thread backend).
    """
    global _AVAILABLE
    _pick_start_method()  # raises on a bad override; validated, so the
    # context for it always exists — only shm allocation needs probing
    if _AVAILABLE is None:
        try:
            shm = _create_shm(16)  # repro: allow(shm-lifecycle) -- availability probe: the block is unlinked on the next line, before any payload protocol begins
            shm.unlink()
            shm.close()
            _AVAILABLE = True
        except Exception:  # pragma: no cover - platform-dependent
            _AVAILABLE = False
    return _AVAILABLE


def _pick_start_method() -> str:
    """Resolve the start method: explicit override, else platform default.

    ``REPRO_VMPI_START_METHOD`` wins when set (and must be available on
    this platform). Otherwise prefer fork on Linux (cheap launch, args
    inherited); elsewhere keep the platform default — macOS lists fork
    as available but forking after framework/BLAS initialization is
    unsafe there, which is why CPython switched its default to spawn.
    Everything the backend ships across the process boundary (the rank
    entry point, the SPMD program, its args, queues) is picklable, so
    any start method is correct — they differ only in launch cost.
    """
    import sys

    methods = multiprocessing.get_all_start_methods()
    override = vmpi_start_method()
    if override is not None:
        if override not in methods:
            raise ValueError(
                f"REPRO_VMPI_START_METHOD={override!r} is unavailable on this "
                f"platform (available: {'/'.join(methods)})"
            )
        return override
    if sys.platform == "linux" and "fork" in methods:
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


class ProcessBackend(ExecutionBackend):
    """One OS process per rank, shared-memory array transport.

    ``pool`` selects the rank-process lifecycle: ``"persistent"`` (the
    ``REPRO_VMPI_POOL`` default) dispatches through a long-lived
    :class:`~repro.vmpi.pool.RankPool` — workers are spawned once and
    successive ``run`` calls (``factor`` then many ``solve`` s) reuse
    them; ``"per_call"`` spawns and tears down fresh processes every
    call. Booleans are accepted as shorthand (``True`` = persistent).
    """

    name = "process"

    def __init__(
        self,
        start_method: str | None = None,
        min_shm_bytes: int | None = None,
        pool: str | bool | None = None,
    ):
        self.start_method = start_method or _pick_start_method()
        self.min_shm_bytes = (
            vmpi_shm_min_bytes() if min_shm_bytes is None else int(min_shm_bytes)
        )
        if pool is None:
            self.pool_mode = vmpi_pool()
        elif isinstance(pool, bool):
            self.pool_mode = "persistent" if pool else "per_call"
        else:
            from repro.util.config import VMPI_POOL_MODES

            if pool not in VMPI_POOL_MODES:
                raise ValueError(
                    f"pool must be one of {'/'.join(VMPI_POOL_MODES)}, got {pool!r}"
                )
            self.pool_mode = pool
        self._pool = None  # pinned RankPool (persistent mode, after first run)

    @property
    def pool(self):
        """The :class:`~repro.vmpi.pool.RankPool` of the last dispatch.

        ``None`` before the first ``run`` or in per-call mode. Holders
        of long-lived factorizations (the serving cache) pin it so the
        registry's idle LRU eviction keeps its ranks resident.
        """
        return self._pool

    def __getstate__(self) -> dict:
        # a live pool (processes, queues) cannot cross pickling — e.g.
        # a ParallelFactorization carrying this backend; re-acquired
        # from the registry on the next run
        state = dict(self.__dict__)
        state["_pool"] = None
        return state

    def run(
        self,
        nranks: int,
        fn: Callable[..., Any],
        args: tuple,
        *,
        cost_model: CostModel | None = None,
        copy_payloads: bool = True,
        timeout: float = 3600.0,
    ) -> SPMDRun:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        if self.pool_mode == "persistent":
            from repro.vmpi.pool import DispatchEncodeError, get_pool

            # always (re)acquire through the registry: it returns the
            # same live pool, refreshing its LRU recency so an actively
            # used pool is never the eviction candidate, and it
            # replaces dead pools transparently
            pool = get_pool(nranks, self.start_method, self.min_shm_bytes)
            self._pool = pool
            try:
                return pool.run(
                    fn,
                    args,
                    cost_model=cost_model,
                    copy_payloads=copy_payloads,
                    timeout=timeout,
                )
            except DispatchEncodeError:
                # the dispatch payload could not be pickled (closure/
                # lambda rank program, unpicklable args) — by contract
                # raised before anything was dispatched, so the pool is
                # unharmed. Under fork the per-call path still handles
                # such programs by inheritance, exactly as it did before
                # pools existed; elsewhere pickling is unavoidable.
                if self.start_method != "fork":
                    raise
        return self._run_per_call(
            nranks,
            fn,
            args,
            cost_model=cost_model,
            copy_payloads=copy_payloads,
            timeout=timeout,
        )

    def _run_per_call(
        self,
        nranks: int,
        fn: Callable[..., Any],
        args: tuple,
        *,
        cost_model: CostModel | None = None,
        copy_payloads: bool = True,
        timeout: float = 3600.0,
    ) -> SPMDRun:
        _ensure_resource_tracker()
        ctx = multiprocessing.get_context(self.start_method)
        mailboxes = [ctx.Queue() for _ in range(nranks)]
        results_q = ctx.Queue()
        # sender-side registry of created shm block names: a feeder-less
        # SimpleQueue, so names written by a rank survive its death
        registry = ctx.SimpleQueue()
        registered: set = set()
        procs = [
            ctx.Process(
                target=_rank_main,
                args=(
                    r,
                    fn,
                    args,
                    mailboxes,
                    results_q,
                    cost_model,
                    copy_payloads,
                    self.min_shm_bytes,
                    registry,
                    trace.enabled,
                    profile.active_hz,
                ),
                name=f"vmpi-rank-{r}",
                daemon=True,
            )
            for r in range(nranks)
        ]
        outcomes: dict[int, tuple] = {}
        try:
            for pr in procs:
                pr.start()
            self._collect(procs, results_q, outcomes, nranks, timeout, registry, registered)
            failures = [o for o in outcomes.values() if not o[1]]
            if failures:
                rank, _ok, desc, _rep = min(failures, key=lambda o: o[0])
                raise RuntimeError(f"rank {rank} failed: {desc}")
            # attach/unlink each rank's result segment now. (On the
            # failure path above, successful ranks' unopened segments
            # are reclaimed by the registry sweep in finally.)
            results = [unpack(outcomes[r][2]) for r in range(nranks)]
            reports: list[RankReport] = [outcomes[r][3] for r in range(nranks)]
            return SPMDRun(results, reports)
        finally:
            _teardown_procs(procs, mailboxes, results_q, registry, registered)

    def _collect(
        self,
        procs: list,
        results_q,
        outcomes: dict[int, tuple],
        nranks: int,
        timeout: float,
        registry=None,
        registered: set | None = None,
    ) -> None:
        """Gather one outcome per rank, stopping early on failure."""
        deadline = time.monotonic() + timeout
        while len(outcomes) < nranks:
            if registry is not None:
                # keep the (bounded) registry pipe drained while ranks run
                _drain_registry(registry, registered)
            try:
                item = results_q.get(timeout=0.2)
            except queue.Empty:
                if time.monotonic() > deadline:
                    pending = sorted(set(range(nranks)) - set(outcomes))
                    raise TimeoutError(
                        f"SPMD run did not finish within {timeout}s (ranks {pending} alive)"
                    ) from None
                dead = [
                    r
                    for r, pr in enumerate(procs)
                    if r not in outcomes and pr.exitcode is not None
                ]
                if dead:
                    try:  # the result may still be in flight; one grace read
                        item = results_q.get(timeout=1.0)
                    except queue.Empty:
                        code = procs[dead[0]].exitcode
                        detail = (
                            "exited without reporting a result "
                            "(unpicklable return value?)"
                            if code == 0
                            else f"died with exit code {code}"
                        )
                        raise RuntimeError(f"rank {dead[0]} {detail}") from None
                else:
                    continue
            outcomes[item[0]] = item
            if not item[1]:  # a failed rank poisons the whole run: stop waiting
                grace = time.monotonic() + 1.0
                while time.monotonic() < grace:
                    try:
                        late = results_q.get(timeout=0.1)
                        outcomes[late[0]] = late
                    except queue.Empty:
                        pass
                return
