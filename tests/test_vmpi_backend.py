"""Thread/process execution-backend parity and shared-memory transport tests.

The two backends must be observationally identical: bitwise-equal
results and equal message/byte counters — only the physics of delivery
(threads + deep copies vs processes + shared-memory blocks) differs.
"""

import multiprocessing
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.apps import LaplaceVolumeProblem
from repro.bie import InteriorDirichletProblem, StarCurve
from repro.core import SRSOptions
from repro.parallel import parallel_srs_factor
from repro.vmpi import (
    ProcessBackend,
    ThreadBackend,
    process_backend_available,
    resolve_backend,
    run_spmd,
)
from repro.vmpi.process_backend import SEGMENT_MIN_BYTES, pack, release_segment, unpack

from conftest import shm_blocks

needs_process = pytest.mark.skipif(
    not process_backend_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


# ----------------------------------------------------------------------
# backend resolution / config
# ----------------------------------------------------------------------
def test_resolve_backend_default_is_thread(monkeypatch):
    monkeypatch.delenv("REPRO_VMPI_BACKEND", raising=False)
    assert resolve_backend(None).name == "thread"
    assert resolve_backend("thread").name == "thread"


def test_resolve_backend_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_VMPI_BACKEND", "process")
    if process_backend_available():
        assert resolve_backend(None).name == "process"
    monkeypatch.setenv("REPRO_VMPI_BACKEND", "bogus")
    with pytest.raises(ValueError):
        resolve_backend(None)


def test_resolve_backend_passthrough_instance():
    be = ThreadBackend()
    assert resolve_backend(be) is be


def test_resolve_backend_normalizes_strings(monkeypatch):
    assert resolve_backend(" Thread ").name == "thread"
    if process_backend_available():
        assert resolve_backend("Process").name == "process"
    # blank spec falls back to the configured default, like an unset var
    monkeypatch.delenv("REPRO_VMPI_BACKEND", raising=False)
    assert resolve_backend("").name == "thread"
    assert resolve_backend("  ").name == "thread"


# ----------------------------------------------------------------------
# pack / unpack: one pickle stream + at most one shared-memory segment
# ----------------------------------------------------------------------
def _registry():
    return multiprocessing.get_context().SimpleQueue()


def _registered(registry) -> list:
    names = []
    while not registry.empty():
        names.append(registry.get())
    return names


def _roundtrip(packed):
    """``unpack`` after the wire trip every Packed makes through a queue."""
    return unpack(pickle.loads(pickle.dumps(packed)))


#: float64 counts of one-array messages on either side of the rule
_INLINE = 200 * 1024 // 8  # 200 KiB: rides the stream
_BULK = SEGMENT_MIN_BYTES // 8 + 1  # takes a segment


@needs_process
def test_shm_codec_roundtrip_nested():
    payload = {
        "big": np.arange(4096, dtype=np.float64),
        "complex": (np.zeros((64, 64), dtype=np.complex128) + 1j),
        "small": np.arange(4, dtype=np.int32),
        "scalars": [1, 2.5, "tag", None, (3, 4)],
    }
    packed = pack(payload, min_bytes=2048)
    # the rule is per message: past the threshold, the small array shares
    # the segment with the two large ones
    assert packed.segment is not None and packed.inline == ()
    assert [n for _, n in packed.spans] == [4096 * 8, 64 * 64 * 16, 4 * 4]
    assert packed.shm_nbytes == 4096 * 8 + 64 * 64 * 16 + 4 * 4
    decoded = _roundtrip(packed)
    np.testing.assert_array_equal(decoded["big"], payload["big"])
    assert decoded["big"].dtype == payload["big"].dtype
    np.testing.assert_array_equal(decoded["complex"], payload["complex"])
    np.testing.assert_array_equal(decoded["small"], payload["small"])
    assert decoded["scalars"] == payload["scalars"]
    # zero-copy: both large arrays are views of the one mapping
    assert decoded["big"].base is not None and not decoded["big"].flags.owndata
    assert packed.segment not in shm_blocks()  # the single receiver unlinked it


@needs_process
def test_shm_codec_structured_dtype_rides_pickle_channel():
    """Structured dtypes stay in the stream regardless of size, field
    layout intact."""
    rec = np.zeros(1000, dtype=[("a", "f8"), ("b", "i8")])
    rec["a"] = 1.5
    packed = pack({"rec": rec}, min_bytes=0)
    assert packed.segment is None and packed.spans == () and packed.inline == ()
    decoded = _roundtrip(packed)
    assert decoded["rec"].dtype.names == ("a", "b")
    np.testing.assert_array_equal(decoded["rec"]["a"], rec["a"])


def _structured_send_prog(comm):
    rec = np.zeros(500, dtype=[("a", "f8"), ("b", "i8")])
    rec["b"] = np.arange(500)
    if comm.rank == 0:
        comm.send(rec, 1)
        return None
    got = comm.recv(0)
    return int(got["b"].sum())


@needs_process
def test_process_backend_structured_dtype_parity():
    expected = int(np.arange(500).sum())
    for backend in ("thread", "process"):
        assert run_spmd(2, _structured_send_prog, backend=backend).results[1] == expected


@needs_process
def test_shm_codec_empty_arrays_at_zero_threshold():
    """0-byte arrays must stay in the stream even when the threshold is
    0 (SharedMemory rejects size-0 segments)."""
    payload = {"empty": np.empty(0, dtype=np.int64), "data": np.arange(8.0)}
    packed = pack(payload, min_bytes=0)
    assert packed.spans == ((0, 64),)  # "data" alone
    decoded = unpack(packed)
    assert decoded["empty"].size == 0 and decoded["empty"].dtype == np.int64
    np.testing.assert_array_equal(decoded["data"], payload["data"])
    # nothing but 0-byte arrays: no segment at all
    assert pack({"empty": np.empty((0, 3))}, min_bytes=0).segment is None


def _empty_send_prog(comm):
    if comm.rank == 0:
        comm.send(np.empty(0, dtype=np.int64), 1)
        return None
    return comm.recv(0).size


@needs_process
def test_process_backend_zero_threshold_run():
    """An empty array (which no segment can hold: SharedMemory rejects
    size 0) travels on the default backend."""
    assert run_spmd(2, _empty_send_prog, backend=ProcessBackend()).results[1] == 0


@needs_process
def test_shm_codec_noncontiguous_and_isolation():
    base = np.arange(10000, dtype=np.float64).reshape(100, 100)
    view = base[::2, ::2]  # non-contiguous: travels as one contiguous copy
    decoded = unpack(pack(view, min_bytes=0))
    np.testing.assert_array_equal(decoded, view)
    decoded[0, 0] = -1.0  # writable, and isolated from the source
    assert base[0, 0] == 0.0
    # a contiguous array through the segment is just as isolated
    decoded = unpack(pack(base, min_bytes=0))
    assert decoded.flags.writeable
    decoded[0, 0] = -1.0
    assert base[0, 0] == 0.0


@needs_process
def test_shm_codec_below_threshold_travels_inline_and_isolated():
    """A message whose arrays total less than SEGMENT_MIN_BYTES takes no
    segment: a 200 KiB array rides the stream, copied at pack time, and
    arrives writable; 0-byte, 0-d and structured arrays stay in the
    stream itself."""
    big = np.arange(_INLINE, dtype=np.float64)
    rec = np.zeros(100, dtype=[("a", "f8"), ("b", "i8")])
    registry = _registry()
    before = shm_blocks()
    packed = pack(
        {"big": big, "empty": np.empty(0), "s": np.array(1.5), "rec": rec},
        registry=registry,
    )
    assert packed.segment is None and packed.spans == ()
    assert [len(b) for b in packed.inline] == [big.nbytes]
    assert _registered(registry) == [] and shm_blocks() == before
    big[:] = -1.0  # after pack: must not reach the receiver
    decoded = _roundtrip(packed)
    assert decoded["big"].flags.writeable
    np.testing.assert_array_equal(decoded["big"], np.arange(_INLINE, dtype=np.float64))
    assert decoded["empty"].size == 0 and decoded["s"] == 1.5
    assert decoded["rec"].dtype == rec.dtype
    registry.close()


@needs_process
def test_shm_codec_zero_dim_rides_pickle_channel():
    """0-d arrays and numpy scalars stay in the stream deterministically
    (they are control-message sized; segments are for real buffers)."""
    packed = pack({"s": np.array(3.5), "g": np.float64(2.5)}, min_bytes=0)
    assert packed.segment is None
    decoded = unpack(packed)
    assert decoded["s"] == 3.5 and decoded["s"].ndim == 0
    assert decoded["g"] == 2.5 and isinstance(decoded["g"], np.float64)


@needs_process
def test_shm_codec_preserves_fortran_order():
    """F-contiguous arrays (LAPACK LU factors) must come back
    F-contiguous: layout normalization would route later BLAS calls
    down different kernels and break bitwise cross-backend parity."""
    f_arr = np.asfortranarray(np.arange(10000, dtype=np.float64).reshape(100, 100))
    c_arr = np.ascontiguousarray(f_arr)
    for min_bytes, in_segment in ((0, True), (SEGMENT_MIN_BYTES, False)):
        packed = pack((f_arr, c_arr), min_bytes=min_bytes)
        assert len(packed.spans if in_segment else packed.inline) == 2
        dec_f, dec_c = _roundtrip(packed)
        assert dec_f.flags.f_contiguous and not dec_f.flags.c_contiguous
        assert dec_c.flags.c_contiguous and not dec_c.flags.f_contiguous
        np.testing.assert_array_equal(dec_f, f_arr)
        np.testing.assert_array_equal(dec_c, c_arr)


@needs_process
def test_shm_codec_one_segment_for_fifty_arrays():
    """Fifty small arrays (5.6-5.9 KiB each) that together pass
    SEGMENT_MIN_BYTES make a bulk message: it registers exactly one
    name — and adds exactly one /dev/shm entry."""
    arrays = [np.full(700 + i, float(i)) for i in range(50)]
    assert sum(a.nbytes for a in arrays) >= SEGMENT_MIN_BYTES
    registry = _registry()
    before = shm_blocks()
    packed = pack({"arrays": arrays, "tag": 3}, registry=registry)
    assert _registered(registry) == [packed.segment]
    assert shm_blocks() - before == {packed.segment}
    assert len(packed.spans) == 50
    assert all(offset % 64 == 0 for offset, _ in packed.spans)
    decoded = unpack(packed)
    assert shm_blocks() == before
    for got, want in zip(decoded["arrays"], arrays):
        np.testing.assert_array_equal(got, want)
    registry.close()


@needs_process
def test_shm_codec_aliased_array_arrives_once():
    """The same array object twice in a payload is laid out once and
    arrives as one object, as it would through a plain pickle."""
    a = np.arange(5000.0)
    packed = pack({"x": a, "y": [a, a[:10]]}, min_bytes=2048)
    # `a` once; the slice is another array object, laid out on its own
    assert [n for _, n in packed.spans] == [a.nbytes, 10 * 8]
    decoded = unpack(packed)
    assert decoded["x"] is decoded["y"][0]
    np.testing.assert_array_equal(decoded["y"][1], a[:10])


@needs_process
def test_shm_codec_mapping_lives_as_long_as_any_array():
    """The one mapping closes when the last decoded array dies — not
    before (a surviving array stays readable), and silently."""
    import gc

    packed = pack([np.arange(4096.0), np.ones(4096)], min_bytes=2048)
    first, second = unpack(packed)
    del first
    gc.collect()
    assert second.sum() == 4096.0  # still mapped
    tail = second[-8:]
    del second
    gc.collect()
    assert tail.sum() == 8.0  # a view of a view keeps it alive too


# ----------------------------------------------------------------------
# dataclass payloads (WorkerResult / BoxRecord / PartialLU trees)
# ----------------------------------------------------------------------
def _make_box_record():
    from repro.core.skel import BoxRecord
    from repro.linalg.lu import PartialLU

    rng = np.random.default_rng(7)
    return BoxRecord(
        box=(1, 2),
        level=3,
        redundant=np.arange(24, dtype=np.int64),
        skeleton=np.arange(24, 48, dtype=np.int64),
        cluster=np.arange(48, 120, dtype=np.int64),
        T=rng.standard_normal((24, 24)),
        lu=PartialLU(rng.standard_normal((24, 24)) + 24 * np.eye(24)),
        e_cr=rng.standard_normal((72, 24)),
        g_rc=np.asfortranarray(rng.standard_normal((24, 72))),  # as trtrs returns it
        cluster_segments=[((1, 2), 0, 24), ((1, 3), 24, 72)],
    )


@needs_process
def test_shm_codec_walks_dataclass_payloads():
    """BoxRecord (a dataclass holding a PartialLU, a plain class) travels
    with its big arrays in one segment; the original is never mutated."""
    rec = _make_box_record()
    t_before, lu_before = rec.T, rec.lu._lu
    registry = _registry()
    packed = pack(rec, min_bytes=256, registry=registry)
    assert _registered(registry) == [packed.segment]
    assert rec.T is t_before and rec.lu._lu is lu_before  # source intact
    # a bulk message: every array of the record shares the one segment,
    # the small index arrays and pivots included
    every = (rec.redundant, rec.skeleton, rec.cluster, rec.T, rec.lu._lu,
             rec.lu._piv, rec.lu._perm, rec.e_cr, rec.g_rc)
    assert sorted(n for _, n in packed.spans) == sorted(a.nbytes for a in every)
    dec = _roundtrip(packed)
    np.testing.assert_array_equal(dec.T, rec.T)
    np.testing.assert_array_equal(dec.e_cr, rec.e_cr)
    np.testing.assert_array_equal(dec.lu._lu, rec.lu._lu)
    np.testing.assert_array_equal(dec.lu._piv, rec.lu._piv)
    assert dec.lu._lu.flags.f_contiguous == rec.lu._lu.flags.f_contiguous
    assert dec.g_rc.flags.f_contiguous and not dec.g_rc.flags.owndata
    assert not dec.T.flags.owndata and not dec.lu._lu.flags.owndata  # mapped
    assert dec.cluster_segments == rec.cluster_segments
    # the reassembled PartialLU still solves
    rhs = np.ones(24)
    np.testing.assert_array_equal(dec.lu.solve_left(rhs), rec.lu.solve_left(rhs))
    registry.close()


@dataclass
class _EdgePayload:
    empty: np.ndarray = field(default_factory=lambda: np.empty(0))
    zero_d: np.ndarray = field(default_factory=lambda: np.array(1.5))
    objs: np.ndarray = field(
        default_factory=lambda: np.array([{"a": 1}, None], dtype=object)
    )
    rec: np.ndarray = field(
        default_factory=lambda: np.zeros(500, dtype=[("a", "f8"), ("b", "i8")])
    )
    big: np.ndarray = field(default_factory=lambda: np.arange(4096.0))


@needs_process
def test_shm_codec_dataclass_edge_fields_ride_pickle_channel():
    """Edge cases inside dataclasses — empty, 0-d, object-dtype, and
    structured fields — deterministically stay in the stream instead of
    raising."""
    p = _EdgePayload()
    packed = pack(p, min_bytes=0)
    assert packed.spans == ((0, 4096 * 8),)  # only the real buffer
    dec = unpack(packed)
    np.testing.assert_array_equal(dec.big, p.big)
    assert dec.empty.size == 0 and dec.zero_d == 1.5
    assert dec.objs[0] == {"a": 1} and dec.objs[1] is None
    assert dec.rec.dtype == p.rec.dtype


@needs_process
def test_shm_codec_identity_on_arrayless_payloads():
    """A payload whose arrays total less than the threshold creates
    nothing: no segment, no registry entry, no /dev/shm traffic."""
    rec = _make_box_record()
    payload = {"tag": 7, "coords": [(1, 2), (3, 4)], "rec": rec}
    registry = _registry()
    before = shm_blocks()
    packed = pack(payload, min_bytes=10**9, registry=registry)
    assert packed.segment is None and packed.spans == () and packed.shm_nbytes == 0
    assert len(packed.inline) == 9  # the record's arrays ride the stream
    assert _registered(registry) == [] and shm_blocks() == before
    decoded = unpack(packed)
    assert decoded["tag"] == 7 and decoded["coords"] == payload["coords"]
    np.testing.assert_array_equal(decoded["rec"].T, rec.T)
    registry.close()


@needs_process
def test_shm_codec_pickling_failure_leaves_no_segment():
    """The stream is complete before a segment exists, so an unpicklable
    payload — even one holding large arrays — registers and leaves
    nothing."""
    registry = _registry()
    before = shm_blocks()
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        pack({"big": np.zeros(5000), "cb": lambda: 1}, min_bytes=0, registry=registry)
    assert _registered(registry) == [] and shm_blocks() == before
    registry.close()


@needs_process
def test_shm_codec_failure_after_create_unlinks_segment(monkeypatch):
    """A failure between creating the segment and finishing the copy —
    here the registry write — unlinks it; ENOSPC at creation has nothing
    to unlink."""
    import errno

    import repro.vmpi.process_backend as codec

    class BrokenPipe:
        def put(self, name):
            raise OSError(errno.EPIPE, "registry pipe closed")

    before = shm_blocks()
    with pytest.raises(OSError):
        pack(np.zeros(5000), min_bytes=0, registry=BrokenPipe())
    assert shm_blocks() == before

    def no_space(nbytes):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(codec, "_create_shm", no_space)
    registry = _registry()
    with pytest.raises(OSError):
        pack(np.zeros(5000), min_bytes=0, registry=registry)
    assert _registered(registry) == [] and shm_blocks() == before
    registry.close()


def test_worker_result_shm_codec_shrinks_pickle_channel(factor_pair):
    """Acceptance probe: packing a WorkerResult list drops the pickle
    stream to control-message size — the array payload (records, LU
    factors) travels out-of-band, in one segment."""
    workers = factor_pair["thread"][0].workers
    raw = len(pickle.dumps(workers, protocol=pickle.HIGHEST_PROTOCOL))
    packed = pack(workers, min_bytes=2048)
    try:
        assert packed.segment is not None, "no arrays left the pickle stream"
        assert len(packed.blob) < raw / 2, (len(packed.blob), raw)
    finally:
        release_segment(packed.segment)  # the probe never unpacks it


# ----------------------------------------------------------------------
# SPMD parity
# ----------------------------------------------------------------------
def _collective_prog(comm):
    rank = comm.rank
    data = np.arange(3000, dtype=np.float64) * (rank + 1)
    total = comm.allreduce(float(data.sum()), lambda a, b: a + b)
    gathered = comm.gather(np.full(rank + 1, rank, dtype=np.int64), 0)
    chunk = comm.scatter(
        [np.arange(i + 1, dtype=np.float64) for i in range(comm.size)] if rank == 0 else None,
        0,
    )
    peer = rank ^ 1
    comm.send(data, peer, tag=5)
    mirror = comm.recv(peer, tag=5)
    return (
        total,
        None if gathered is None else [g.tolist() for g in gathered],
        chunk.tolist(),
        float(mirror.sum()),
    )


@needs_process
def test_collectives_parity_and_counters():
    runs = {
        be.name: run_spmd(4, _collective_prog, backend=be)
        for be in (ThreadBackend(), ProcessBackend())
    }
    t, p = runs["thread"], runs["process"]
    assert t.results == p.results
    for rt, rp in zip(t.reports, p.reports):
        assert rt.messages_sent == rp.messages_sent
        assert rt.bytes_sent == rp.bytes_sent
        assert rt.messages_received == rp.messages_received
        assert rt.bytes_received == rp.bytes_received


def _mutate_prog(comm):
    data = np.arange(_BULK, dtype=np.float64)
    if comm.rank == 0:
        comm.send(data, 1, tag=1)
        comm.barrier()
        return float(data.sum())  # sender must be unaffected
    if comm.rank == 1:
        got = comm.recv(0, tag=1)
        got[:] = -1.0
        comm.barrier()
        return float(got.sum())
    comm.barrier()
    return None


@needs_process
def test_process_rank_isolation_with_shm_arrays():
    """Mutating a received shm-backed array must not leak to the sender."""
    run = run_spmd(2, _mutate_prog, backend="process")
    assert run.results[0] == float(np.arange(_BULK, dtype=np.float64).sum())
    assert run.results[1] == -float(_BULK)


def _mutate_after_send_prog(comm):
    # one message below the shm threshold (pickle channel), one above
    small = np.arange(_INLINE, dtype=np.float64)
    big = np.arange(_BULK, dtype=np.float64)
    if comm.rank == 0:
        comm.send(small, 1, tag=1)
        comm.send(big, 1, tag=2)
        small[:] = -1.0  # after-send mutation must NOT reach the receiver
        big[:] = -1.0
        comm.barrier()
        return None
    got_small = comm.recv(0, tag=1)
    got_big = comm.recv(0, tag=2)
    comm.barrier()
    return float(got_small.sum()), float(got_big.sum())


@needs_process
def test_send_snapshots_payload_at_put_time():
    """Buffered-send semantics: the receiver sees the payload as it was
    at ``send`` time on both transport channels (shm copies happen
    synchronously; the mailbox pickles the frame in the sending thread,
    also when the frame waits in the sender's backlog)."""
    for backend in ("thread", "process"):
        run = run_spmd(2, _mutate_after_send_prog, backend=backend)
        assert run.results[1] == (
            float(np.arange(_INLINE).sum()),
            float(np.arange(_BULK).sum()),
        ), backend


#: float64 counts of the stress test's two message sizes, both inline
_STRESS_LARGE = 200_000 // 8
_STRESS_SMALL = 16_000 // 8


def _stress_message(rank: int, k: int, n: int) -> np.ndarray:
    return np.arange(n, dtype=np.float64) + 1e6 * k + 1e9 * rank


def _send_stream(comm, peer: int) -> None:
    for k in range(8):
        comm.send(_stress_message(comm.rank, k, _STRESS_LARGE), peer, tag=1)
    for k in range(300):
        comm.send(_stress_message(comm.rank, k, _STRESS_SMALL), peer, tag=2)


def _recv_stream(comm, peer: int) -> tuple:
    large = [comm.recv(peer, tag=1) for _ in range(8)]
    small = [comm.recv(peer, tag=2) for _ in range(300)]
    return np.concatenate(large), np.concatenate(small)


def _send_all_before_receiving_prog(comm):
    # ranks 0 and 1 each send the other ~6.4 MB, more than any pipe
    # holds, before receiving anything: a blocking send deadlocks here.
    # Rank 2 sends rank 3 the same while rank 3 receives, so later
    # frames meet a backlog while the pipe drains: an inline write
    # overtaking the backlog reorders here
    if comm.rank == 2:
        _send_stream(comm, 3)
        return None
    if comm.rank == 3:
        return _recv_stream(comm, 2)
    _send_stream(comm, 1 - comm.rank)
    return _recv_stream(comm, 1 - comm.rank)


@needs_process
def test_buffered_sends_beyond_pipe_capacity_never_block():
    """A send never blocks and never reorders, however much the sender
    has queued: every message arrives, each (source, tag) in send
    order, and both backends deliver the same bits."""
    runs = {
        backend: run_spmd(4, _send_all_before_receiving_prog, backend=backend, timeout=60)
        for backend in ("thread", "process")
    }
    for rank, peer in ((0, 1), (1, 0), (3, 2)):
        large, small = runs["process"].results[rank]
        np.testing.assert_array_equal(
            large, np.concatenate([_stress_message(peer, k, _STRESS_LARGE) for k in range(8)])
        )
        np.testing.assert_array_equal(
            small, np.concatenate([_stress_message(peer, k, _STRESS_SMALL) for k in range(300)])
        )
        for got, want in zip(runs["process"].results[rank], runs["thread"].results[rank]):
            assert got.tobytes() == want.tobytes()
    assert runs["process"].results[2] is None


def _threads_after_sends_prog(comm):
    # each send is received before the next, so the pipe never holds more
    # than two frames and has room at any capacity the kernel grants
    before = threading.active_count()
    got = []
    for k in range(50):
        comm.send(np.full(8, float(k)), (comm.rank + 1) % comm.size, tag=5)
        got.append(float(comm.recv((comm.rank - 1) % comm.size, tag=5)[0]))
    return threading.active_count() - before, got


@needs_process
@pytest.mark.skipif(sys.platform != "linux", reason="the pipe's room is read through Linux fcntl")
def test_small_sends_start_no_thread():
    """A send that fits the receiver's pipe is written by the sending
    thread itself: fresh rank processes sending 50 small messages each
    start no writer thread."""
    from repro.vmpi.pool import RankPool

    pool = RankPool(4, ProcessBackend().start_method)
    try:
        run = pool.run(_threads_after_sends_prog, (), timeout=60)
    finally:
        pool.shutdown()
    assert run.results == [(0, [float(k) for k in range(50)])] * 4


def _boom_prog(comm):
    if comm.rank == 2:
        raise ValueError("boom")
    return comm.rank


@needs_process
def test_process_backend_error_propagates():
    with pytest.raises(RuntimeError, match="rank 2"):
        run_spmd(4, _boom_prog, backend="process")


def _unpicklable_payload_prog(comm):
    if comm.rank == 0:
        try:
            comm.send({"big": np.zeros(5000), "cb": lambda: 1}, 1)
        except Exception:
            pass  # expected: the payload cannot be pickled
        comm.send("done", 1, tag=9)
        return None
    return comm.recv(0, tag=9)


@needs_process
def test_put_releases_shm_blocks_on_pickle_failure():
    """If pickling fails after large arrays were carved into shm blocks,
    the blocks must be unlinked, not orphaned in /dev/shm."""
    before = shm_blocks()
    run = run_spmd(2, _unpicklable_payload_prog, backend="process")
    assert run.results[1] == "done"
    leaked = shm_blocks() - before
    assert not leaked, leaked
    # the failed send must not have been counted
    assert run.reports[0].messages_sent == 1


def _orphan_send_prog(comm):
    if comm.rank == 0:
        # large enough to ride a shm block; rank 1 never receives it
        comm.send(np.arange(_BULK, dtype=float), 1, tag=3)
        raise ValueError("abort after send")
    return None  # rank 1 exits without receiving


@needs_process
def test_abnormal_teardown_unlinks_registered_blocks():
    """Blocks of messages stranded by a failing run must not persist.

    The sender-side name registry lets the parent unlink whatever the
    normal receiver/drain paths could not reach."""
    before = shm_blocks()
    with pytest.raises(RuntimeError, match="rank 0"):
        run_spmd(2, _orphan_send_prog, backend="process")
    leaked = shm_blocks() - before
    assert not leaked, leaked


@needs_process
def test_unlink_registered_sweeps_orphans():
    """The registry sweep unlinks live blocks and skips consumed names."""
    import multiprocessing

    from repro.vmpi.pool import _drain_registry, _unlink_registered
    from repro.vmpi.process_backend import _attach_shm, _create_shm

    shm = _create_shm(4096)
    name = shm.name
    shm.close()
    q = multiprocessing.get_context().SimpleQueue()
    q.put(name)
    q.put("psm_repro_already_consumed")  # unlinked long ago: skipped
    names: set = set()
    _drain_registry(q, names)
    assert name in names and len(names) == 2
    _unlink_registered(names)
    q.close()
    with pytest.raises(FileNotFoundError):
        _attach_shm(name)


def _unpicklable_prog(comm):
    return lambda: 1  # unpicklable: dies shipping the result, not in fn


def _silent_exit_prog(comm):
    os._exit(0)  # the rank vanishes without an outcome on the result queue


@needs_process
def test_process_backend_unpicklable_result_fails_fast():
    """A worker that vanishes *inside* a job — no outcome on the result
    queue — must be detected by the parent, not waited on: the pool is
    torn down with nothing left in /dev/shm, and the next dispatch
    through the same backend starts fresh workers. An unpicklable
    result is not such a case — packing pickles it inside the rank's
    failure-reporting path, so it surfaces as that rank's failure with
    the pickling error."""
    be = ProcessBackend()
    assert run_spmd(2, _empty_send_prog, backend=be).results[1] == 0
    doomed = be.pool
    before = shm_blocks()
    with pytest.raises(RuntimeError, match="pool rank [01] died with exit code 0"):
        run_spmd(2, _silent_exit_prog, backend=be, timeout=30.0)
    assert not doomed.alive
    assert shm_blocks() == before
    assert run_spmd(2, _empty_send_prog, backend=be).results[1] == 0
    # two workers lost, two started: the dead cohort's pool was dropped
    assert be.pool is not doomed and be.pool.alive and be.pool.spawn_count == 2
    with pytest.raises(RuntimeError, match="rank [01] failed"):
        run_spmd(2, _unpicklable_prog, backend=be, timeout=30.0)


@needs_process
def test_pool_unpicklable_result_reported_as_rank_failure():
    """Pool workers pre-pickle outcomes, so an unpicklable result is a
    clean rank failure (with the pickling error named) — the worker
    survives to take the next dispatch."""
    be = ProcessBackend()
    with pytest.raises(RuntimeError, match="rank [01] failed"):
        run_spmd(2, _unpicklable_prog, backend=be, timeout=30.0)
    # the pool is still usable afterwards
    assert run_spmd(2, _empty_send_prog, backend=be).results[1] == 0


# ----------------------------------------------------------------------
# spawn start method: everything must survive pickling
# ----------------------------------------------------------------------
def _spawn_available() -> bool:
    import multiprocessing

    return "spawn" in multiprocessing.get_all_start_methods()


needs_spawn = pytest.mark.skipif(
    not _spawn_available(), reason="spawn start method unavailable"
)


@needs_process
@needs_spawn
def test_process_backend_spawn_parity():
    """Under spawn nothing is inherited: the rank entry point, program,
    args, and queues all cross by pickling. Results and counters must
    match the thread backend exactly."""
    t = run_spmd(2, _mutate_after_send_prog, backend="thread")
    be = ProcessBackend(start_method="spawn")
    try:
        p = run_spmd(2, _mutate_after_send_prog, backend=be)
    finally:
        be.pool.shutdown()  # an odd shape: nothing else would retire it
    assert t.results == p.results
    for rt, rp in zip(t.reports, p.reports):
        assert (rt.messages_sent, rt.bytes_sent) == (rp.messages_sent, rp.bytes_sent)


@needs_process
@needs_spawn
def test_start_method_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_VMPI_START_METHOD", "spawn")
    assert ProcessBackend().start_method == "spawn"
    monkeypatch.setenv("REPRO_VMPI_START_METHOD", "carrier-pigeon")
    with pytest.raises(ValueError):
        ProcessBackend()
    # a config error must surface as such — not be cached as "platform
    # has no shared memory" by the availability probe
    with pytest.raises(ValueError):
        process_backend_available()
    # an explicit constructor argument wins over the environment
    monkeypatch.setenv("REPRO_VMPI_START_METHOD", "spawn")
    assert ProcessBackend(start_method="fork").start_method == "fork"
    assert process_backend_available()


# ----------------------------------------------------------------------
# auto backend: affinity-aware core budget
# ----------------------------------------------------------------------
def test_effective_cpu_count_honors_affinity(monkeypatch):
    import os

    from repro.vmpi.backend import effective_cpu_count

    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=True)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert effective_cpu_count() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=True)
        assert effective_cpu_count() == 2
    # platforms without affinity fall back to cpu_count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert effective_cpu_count() == 3


def test_auto_backend_single_core_cpuset_picks_thread(monkeypatch):
    """A container restricted to one core must not pick the process
    backend, no matter how many cores the host machine reports."""
    import os

    from repro.vmpi.backend import auto_backend_name

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=True)
        assert auto_backend_name() == "thread"
    else:  # pragma: no cover - non-Linux
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert auto_backend_name() == "thread"


def test_auto_backend_multi_core_picks_process(monkeypatch):
    import os

    from repro.vmpi.backend import auto_backend_name

    if not process_backend_available():
        pytest.skip("process backend unavailable")
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=True)
    else:  # pragma: no cover - non-Linux
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert auto_backend_name() == "process"


# ----------------------------------------------------------------------
# distributed factorization parity (small Table II configuration)
# ----------------------------------------------------------------------
def _factor_on_both_backends(prob, b, opts):
    if not process_backend_available():
        pytest.skip("process backend unavailable")
    out = {}
    for be in ("thread", "process"):
        fact = parallel_srs_factor(
            prob.kernel, 4, opts=opts, domain=prob.parallel_domain, backend=be
        )
        out[be] = (fact, fact.solve(b))
    return out


@pytest.fixture(scope="module")
def factor_pair():
    prob = LaplaceVolumeProblem(32)
    return _factor_on_both_backends(prob, prob.random_rhs(), SRSOptions(tol=1e-9, leaf_size=32))


@pytest.fixture(scope="module")
def batched_factor_pair():
    """The same parity under the batched sweep (hermitian kernel)."""
    prob = LaplaceVolumeProblem(32)
    opts = SRSOptions(tol=1e-9, leaf_size=32, factor_mode="batched")
    return _factor_on_both_backends(prob, prob.random_rhs(), opts)


@pytest.fixture(scope="module")
def star_factor_pair():
    """The same parity on a curve kernel (rank-local BIE reconstruction)."""
    prob = InteriorDirichletProblem(StarCurve(1.0, 0.3, 5), 2048)
    return _factor_on_both_backends(prob, prob.default_rhs(), SRSOptions(tol=1e-10))


def _record_bytes(fact) -> list:
    return [
        (rec.box, rec.level, rec.cluster_segments)
        + tuple(
            arr.tobytes()
            for arr in (rec.redundant, rec.skeleton, rec.cluster, rec.T,
                        rec.lu._lu, rec.lu._piv, rec.e_cr, rec.g_rc)
        )
        for w in fact.workers
        for rec in w.records
    ]


def test_factorization_bitwise_parity(factor_pair, batched_factor_pair, star_factor_pair):
    for pair in (factor_pair, batched_factor_pair, star_factor_pair):
        x_thread = pair["thread"][1]
        x_process = pair["process"][1]
        assert np.array_equal(x_thread, x_process)  # bitwise, not allclose
        assert _record_bytes(pair["thread"][0]) == _record_bytes(pair["process"][0])


def test_factorization_counter_parity(factor_pair, batched_factor_pair, star_factor_pair):
    for pair in (factor_pair, batched_factor_pair, star_factor_pair):
        rt = pair["thread"][0].factor_run.reports
        rp = pair["process"][0].factor_run.reports
        for a, c in zip(rt, rp):
            assert (a.messages_sent, a.bytes_sent) == (c.messages_sent, c.bytes_sent)
            assert (a.messages_received, a.bytes_received) == (
                c.messages_received,
                c.bytes_received,
            )
        st = pair["thread"][0].last_solve_run
        sp = pair["process"][0].last_solve_run
        assert st.total_messages == sp.total_messages
        assert st.total_bytes == sp.total_bytes


def test_factorization_skeleton_parity(factor_pair):
    ft = factor_pair["thread"][0]
    fp = factor_pair["process"][0]
    assert ft.eliminated_count() == fp.eliminated_count()
    for wt, wp in zip(ft.workers, fp.workers):
        assert wt.rank == wp.rank
        assert len(wt.records) == len(wp.records)
        for a, c in zip(wt.records, wp.records):
            assert a.box == c.box and a.level == c.level
            assert np.array_equal(a.skeleton, c.skeleton)
            assert np.array_equal(a.redundant, c.redundant)


def test_strict_p4_factor_message_and_byte_counts():
    """Counts, not clocks: a hermitian store logs and ships one block per
    unordered pair, so the p = 4 strict factor of the Laplace m = 32
    problem sends 27 messages and under 3.6 MB (6,183,951 bytes when
    both orientations travelled)."""
    prob = LaplaceVolumeProblem(m=32)
    fact = parallel_srs_factor(
        prob.kernel, 4, opts=SRSOptions(factor_mode="strict"),
        domain=prob.parallel_domain, backend="thread",
    )
    assert fact.factor_run.total_messages == 27
    assert fact.factor_run.total_bytes <= 3_600_000


def test_worker_result_picklable(factor_pair):
    """Process ranks ship WorkerResult through the result queue."""
    workers = factor_pair["thread"][0].workers
    clone = pickle.loads(pickle.dumps(workers))
    assert [w.rank for w in clone] == [w.rank for w in workers]
    assert all(
        np.array_equal(a.leaf_ids, b.leaf_ids) for a, b in zip(clone, workers)
    )
