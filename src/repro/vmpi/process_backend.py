"""Process execution backend: the message codec, the transport, the backend.

Every rank is an OS process, so rank compute runs truly in parallel
(no GIL). The processes themselves — how they start, take jobs, die and
get cleaned up after — are the business of :mod:`repro.vmpi.pool`
alone; this module is what travels between them. Messages go through
per-rank ``multiprocessing`` queues as a :class:`Packed`: a pickle
protocol-5 stream plus the message's arrays. The rule is per message.
A message whose arrays total at least :data:`SEGMENT_MIN_BYTES` is
*bulk*: :func:`pack` lays all of them at aligned offsets into **one**
``multiprocessing.shared_memory`` segment, the sender paying one
segment creation and one copy per array, and the receiver maps the
segment once while :func:`unpack` rebuilds every array as a view of it
*without copying*. Any other message creates no segment: its arrays,
copied when it is packed, travel through the pipe with the stream. A
segment costs about the same whatever it holds (create, register,
attach, unlink), which the pipe beats below ~256 KiB. The layout step
(:func:`dump_out_of_band`, :func:`aligned_spans`) and the rebuild
(:func:`load_out_of_band`) are shared with the store's disk tier, which
lays a spill file's body out the same way.

Lifetime protocol for a segment: the sender creates it, writes its name
to the pool's registry pipe (a feeder-less ``SimpleQueue``: a
synchronous write made *before* the copy, so the name survives the
sender's death and the pool can unlink what an abnormal teardown
strands), copies the arrays in, and closes its handle. A point-to-point
segment has exactly one receiver, which attaches, unlinks the name at
once (POSIX keeps the mapping alive until the last handle closes) and
ties the handle to the one ``uint8`` array every decoded array is a
view of: the mapping closes when the last decoded array dies, so
resident shared memory tracks the receiver's working set, not total
traffic. A *shared* segment (pool dispatch arguments, store entries) is
attached by every reader and unlinked by its owner — the dispatcher's
post-job sweep, the store's last live holder.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import sys
import time
import weakref
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.obs import BYTES_BUCKETS, REGISTRY, trace
from repro.util.config import vmpi_start_method
from repro.vmpi.backend import ExecutionBackend, SPMDRun
from repro.vmpi.clock import CostModel
from repro.vmpi.transport import Message

_SHM_BYTES = REGISTRY.counter(
    "repro_vmpi_shm_bytes_total",
    "Bytes shipped through shared-memory blocks by the process backend",
)
_SHM_BLOCK_BYTES = REGISTRY.histogram(
    "repro_vmpi_shm_block_bytes",
    "Size distribution of shared-memory segments (one per bulk message)",
    buckets=BYTES_BUCKETS,
)

#: arrays start on cache-line boundaries inside a segment or a store file
ALIGN = 64

#: a message whose arrays total at least this many bytes carries them in
#: one shared-memory segment; a smaller one carries them in the pipe
SEGMENT_MIN_BYTES = 256 * 1024


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
    construction REGISTERs the name with the calling process's resource
    tracker. Rank processes all inherit the dispatcher's tracker (the
    pool starts it before the first spawn), where names form a set: the
    creator's REGISTER and the receiver's (below) are balanced by the
    one ``unlink()`` UNREGISTER, and segments orphaned by a crash get
    cleaned (with a warning) at tracker shutdown. Store entries cross
    unrelated processes with a tracker each; see :func:`untrack`.
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
    except TypeError:  # Python < 3.13: attaching REGISTERs too, like creating
        shm = shared_memory.SharedMemory(name=name)
    return shm


def untrack(name: str | None) -> None:
    """Take a segment this process created or attached out of its
    resource tracker, giving it on Python < 3.13 the ``track=False``
    semantics it has from 3.13 on (where this is a no-op).

    For segments that outlive the process, i.e. store entries: a tracker
    unlinks every name still registered when its process exits, so a
    front end that merely *attached* a published factorization would
    destroy it for every other holder on its way out. Call it once per
    create or attach, in the same process, so every REGISTER is paired
    with one UNREGISTER; ownership is then the caller's own protocol
    (the store's ref markers).
    """
    if name is None or sys.version_info >= (3, 13):
        return
    from multiprocessing import resource_tracker

    resource_tracker.unregister("/" + name, "shared_memory")


# ----------------------------------------------------------------------
# the array layout, shared with the store's files: one pickle walk,
# arrays at aligned offsets, a zero-copy rebuild
# ----------------------------------------------------------------------
def dump_out_of_band(obj: Any) -> tuple[bytes, list[memoryview]]:
    """Pickle ``obj`` once (protocol 5), its arrays out of band.

    Returns the stream and the raw byte view of every array pickle
    offered, in the order the stream asks for them: each C- or
    F-contiguous ndarray anywhere in ``obj``, once however often it
    appears, with dtype, shape, order and writability carried by the
    stream. 0-byte, 0-d and structured arrays stay in the stream, as do
    the arrays pickle never offers (object dtypes, and non-contiguous
    views, which travel as one contiguous copy). The views alias
    ``obj``'s memory; nothing is copied.
    """
    buffers: list[memoryview] = []

    def keep_in_stream(pb) -> bool:
        view = memoryview(pb)
        if view.nbytes == 0 or view.ndim == 0 or view.format.startswith("T{"):
            return True
        buffers.append(pb.raw())
        return False  # pickle's contract: falsy = out-of-band

    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL, buffer_callback=keep_in_stream)
    return blob, buffers


def aligned_spans(buffers, start: int = 0) -> tuple[tuple[tuple[int, int], ...], int]:
    """Lay ``buffers`` end to end from ``start``, each at an
    :data:`ALIGN`-byte boundary: their ``(offset, nbytes)`` spans and
    the size of the region, padded to a boundary."""
    spans, size = [], -(-start // ALIGN) * ALIGN
    for buf in buffers:
        spans.append((size, buf.nbytes))
        size += -(-buf.nbytes // ALIGN) * ALIGN
    return tuple(spans), size


def load_out_of_band(stream, whole: np.ndarray, spans) -> Any:
    """Rebuild what :func:`dump_out_of_band` took from ``stream`` with its
    arrays as views of the ``uint8`` array ``whole`` at ``spans``: no
    array is copied, each keeps its dtype, shape, order and writability,
    and the base chain of every one of them ends at ``whole``'s."""
    return pickle.loads(stream, buffers=[whole[o : o + n] for o, n in spans])


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
class Packed(NamedTuple):
    """Wire form of one message: a pickle stream and its arrays, held
    either in at most one segment or alongside the stream.

    ``spans`` lists ``(offset, nbytes)`` of every array laid into the
    segment, in the order the pickle stream asks for them. A message
    without a segment keeps those arrays in ``inline`` instead, one
    ``bytes`` copy each, in the same order: they cross the process
    boundary inside the pickle stream of whatever carries the Packed (a
    mailbox, a command blob). ``shared`` switches the lifetime protocol:
    the default (point-to-point message payloads, rank results) is
    exactly-one-receiver — :func:`unpack` unlinks on attach. A shared
    segment (pool dispatch args, which ``run_spmd`` documents as shared
    read-only across ranks; store entries) is attached by *every* reader
    without unlinking; its owner reclaims the name.
    """

    blob: bytes
    segment: str | None = None
    spans: tuple = ()
    shared: bool = False
    inline: tuple = ()

    @property
    def shm_nbytes(self) -> int:
        """Array bytes held in the segment (alignment padding excluded)."""
        return sum(n for _, n in self.spans)

    @property
    def nbytes(self) -> int:
        """Bytes the message carries: the stream plus its arrays,
        wherever they travel."""
        return len(self.blob) + self.shm_nbytes + sum(len(b) for b in self.inline)


def pack(
    obj: Any, registry=None, *, shared: bool = False, min_bytes: int = SEGMENT_MIN_BYTES
) -> Packed:
    """Snapshot ``obj`` as a pickle stream plus its arrays.

    :func:`dump_out_of_band` does the walk, once, over containers,
    dataclasses and plain classes such as
    :class:`~repro.linalg.lu.PartialLU` alike. If the arrays it offers
    total at least ``min_bytes`` they all go into one segment, laid out
    by :func:`aligned_spans`; otherwise each is copied into the Packed's
    ``inline`` bytes. Either way the message is a snapshot: mutating
    ``obj`` afterwards does not reach the receiver, and ``obj`` is never
    mutated.

    The stream is complete before the segment exists, so a pickling
    failure leaves nothing behind; the name goes into ``registry``
    (when given) before the first byte is copied, so a crash or
    ``terminate()`` mid-copy leaves the segment reclaimable; a failing
    copy unlinks it.
    """
    blob, buffers = dump_out_of_band(obj)
    if not buffers or sum(buf.nbytes for buf in buffers) < min_bytes:
        return Packed(blob, inline=tuple(bytes(buf) for buf in buffers))
    spans, size = aligned_spans(buffers)
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
    packed = Packed(blob, shm.name, spans, shared)
    _SHM_BYTES.inc(packed.shm_nbytes)
    _SHM_BLOCK_BYTES.observe(size)
    return packed


def unpack(packed: Packed) -> Any:
    """Rebuild the object :func:`pack` took, arrays mapped zero-copy.

    The segment is attached once and wrapped in one ``uint8`` array; the
    pickle stream turns slices of it into the (writable) arrays, so
    every decoded array is a view whose base chain ends at that one
    array, and a ``weakref.finalize`` on it closes the mapping when the
    last of them is collected. Without a segment each ``inline`` buffer
    is copied into a fresh ``bytearray``, so those arrays arrive
    writable too. The decoded object graph belongs exclusively to the
    caller.
    """
    if packed.segment is None:
        return pickle.loads(packed.blob, buffers=[bytearray(b) for b in packed.inline])
    shm = _attach_shm(packed.segment)
    if not packed.shared:
        try:
            shm.unlink()  # name released; mapping lives while the handle does
        except FileNotFoundError:  # pragma: no cover - duplicate cleanup
            pass
    whole = np.ndarray((shm.size,), dtype=np.uint8, buffer=shm.buf)
    weakref.finalize(whole, _close_when_collected, shm)
    return load_out_of_band(packed.blob, whole, packed.spans)


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


# ----------------------------------------------------------------------
# transport + backend
# ----------------------------------------------------------------------
class ProcessTransport:
    """Per-rank ``multiprocessing`` queues carrying :class:`Packed` messages.

    Process isolation makes deep-copying payloads on ``put`` redundant,
    hence ``needs_copy = False`` (:class:`~repro.vmpi.comm.Comm` skips
    ``sanitize``). Buffered-send semantics still require snapshotting
    the payload *at put time*: :func:`pack` pickles the message and
    copies its arrays — into the message's segment when it is bulk,
    into its ``inline`` bytes otherwise — synchronously, rather than
    lazily in the queue's feeder thread, so a sender mutating an array
    after ``send`` never leaks the mutation to the receiver.

    ``epoch`` stamps every message on the wire. Long-lived pool workers
    bump it per dispatched job, so a message stranded by one SPMD
    program (sent but never received) can never be matched by a *later*
    program reusing the same (source, tag) pair — stale messages are
    discarded on receipt and their segment unlinked.
    """

    needs_copy = False

    def __init__(self, mailboxes: list, registry=None, epoch: int = 0):
        self.nranks = len(mailboxes)
        self._mailboxes = mailboxes
        self._registry = registry
        self.epoch = int(epoch)

    def put(self, message: Message) -> None:
        if not (0 <= message.dest < self.nranks):
            raise ValueError(f"invalid destination rank {message.dest}")
        packed = pack(message, self._registry)
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
                sp.set(
                    source=msg.source, bytes=msg.nbytes, segment=packed.segment is not None
                )
                return msg


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
    this platform). Otherwise prefer fork on Linux (cheap launch);
    elsewhere keep the platform default — macOS lists fork
    as available but forking after framework/BLAS initialization is
    unsafe there, which is why CPython switched its default to spawn.
    Everything the backend ships across the process boundary (the rank
    entry point, the SPMD program, its args, queues) is picklable, so
    any start method is correct — they differ only in launch cost.
    """
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

    A handle on a start method: every ``run`` goes to the process-wide
    :class:`~repro.vmpi.pool.RankPool` of ``(nranks, start_method)``,
    whose workers are started once and then serve ``factor`` and every
    later ``solve`` — the paper's execution model (``Distributed.jl``
    workers outliving the factorization they hold). Rank program,
    kernel and arguments reach the workers by pickling on every start
    method; what cannot be pickled raises
    :class:`~repro.vmpi.pool.DispatchEncodeError` before anything is
    dispatched.
    """

    name = "process"

    def __init__(self, start_method: str | None = None):
        self.start_method = start_method or _pick_start_method()
        self._pool = None  # the RankPool of the last dispatch

    @property
    def pool(self):
        """The :class:`~repro.vmpi.pool.RankPool` of the last ``run``
        through this backend; ``None`` before the first."""
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
        from repro.vmpi.pool import get_pool

        # always (re)acquire through the registry: it returns the same
        # live pool and replaces a dead one transparently
        self._pool = get_pool(nranks, self.start_method)
        return self._pool.run(
            fn, args, cost_model=cost_model, copy_payloads=copy_payloads, timeout=timeout
        )
