"""Tests for the vmpi transport, payload accounting, and isolation."""

import numpy as np
import pytest

from repro.vmpi import run_spmd, DeadlockError
from repro.vmpi.transport import Transport, payload_nbytes, sanitize


def test_payload_nbytes_arrays():
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
    assert payload_nbytes(np.zeros((3, 4), dtype=np.complex128)) == 192


def test_payload_nbytes_containers():
    n = payload_nbytes({"a": np.zeros(2), "b": [np.zeros(3), 1.5]})
    assert n >= 16 + 24 + 16


def test_payload_nbytes_scalars_dtype_accurate():
    """Numpy scalars are counted at their dtype width, not a flat 16."""
    assert payload_nbytes(np.float32(1.0)) == 4
    assert payload_nbytes(np.float64(1.0)) == 8
    assert payload_nbytes(np.complex128(1.0)) == 16
    assert payload_nbytes(np.int16(3)) == 2
    assert payload_nbytes(np.clongdouble(1.0)) == np.dtype(np.clongdouble).itemsize
    # Python scalars at their wire widths (int64 / double / complex double)
    assert payload_nbytes(7) == 8
    assert payload_nbytes(1.5) == 8
    assert payload_nbytes(1 + 2j) == 16
    assert payload_nbytes(True) == 1


def test_payload_nbytes_dataclass_counts_fields():
    """Dataclass payloads are priced per field like other containers, so
    nested arrays dominate the count instead of the pickle fallback."""
    from dataclasses import dataclass

    @dataclass
    class Ship:
        ids: np.ndarray
        coords: np.ndarray
        label: str

    ship = Ship(np.zeros(100, dtype=np.int64), np.zeros((100, 2)), "x")
    n = payload_nbytes(ship)
    assert n >= 800 + 1600 + 1
    assert n <= 800 + 1600 + 1 + 64


def test_sanitize_copies_arrays():
    a = np.arange(5)
    out = sanitize({"x": a, "y": (a, [a])})
    out["x"][0] = 99
    assert a[0] == 0
    out["y"][1][0][1] = 98
    assert a[1] == 1


def test_sanitize_preserves_scalars_and_tuples():
    obj = (1, 2.5, "s", None, True)
    assert sanitize(obj) == obj


def test_transport_validation():
    with pytest.raises(ValueError):
        Transport(0)


# Rank programs are module-level functions (parameters travel as
# ``run_spmd`` arguments), so the contract below runs unchanged on rank
# processes — ``REPRO_VMPI_BACKEND=process``, any start method.
def _mutate_received_prog(comm):
    data = np.arange(100)
    if comm.rank == 0:
        comm.send(data, 1, tag=1)
        comm.barrier()
        return data.sum()
    if comm.rank == 1:
        got = comm.recv(0, tag=1)
        got[:] = -1
        comm.barrier()
        return got.sum()
    comm.barrier()
    return None


def test_message_isolation_between_ranks():
    """A rank mutating received data must not affect the sender."""
    run = run_spmd(2, _mutate_received_prog)
    assert run.results[0] == np.arange(100).sum()  # sender unaffected
    assert run.results[1] == -100


def _reversed_tags_prog(comm):
    if comm.rank == 0:
        comm.send("second", 1, tag=2)
        comm.send("first", 1, tag=1)
        return None
    a = comm.recv(0, tag=1)
    b = comm.recv(0, tag=2)
    return (a, b)


def test_out_of_order_tags_buffered():
    run = run_spmd(2, _reversed_tags_prog)
    assert run.results[1] == ("first", "second")


def _five_in_a_row_prog(comm):
    if comm.rank == 0:
        for i in range(5):
            comm.send(i, 1, tag=7)
        return None
    return [comm.recv(0, tag=7) for _ in range(5)]


def test_fifo_per_source_tag():
    run = run_spmd(2, _five_in_a_row_prog)
    assert run.results[1] == [0, 1, 2, 3, 4]


def _recv_from_nobody_prog(comm, patience):
    if comm.rank == 1:
        # shadows Comm.TIMEOUT on this rank's communicator only, which
        # also reaches a rank living in a long-started worker process
        comm.TIMEOUT = patience
        comm.recv(0, tag=9)  # nobody sends


def test_deadlock_detection():
    with pytest.raises(RuntimeError, match="rank 1"):
        run_spmd(2, _recv_from_nobody_prog, 0.2)


def _self_send_prog(comm):
    comm.send(1, comm.rank)


def test_self_send_rejected():
    with pytest.raises(RuntimeError):
        run_spmd(1, _self_send_prog)


def _rank_two_booms_prog(comm):
    if comm.rank == 2:
        raise ValueError("boom")
    return comm.rank


def test_worker_exception_propagates():
    with pytest.raises(RuntimeError, match="rank 2"):
        run_spmd(4, _rank_two_booms_prog)


def _one_kilobyte_prog(comm):
    if comm.rank == 0:
        comm.send(np.zeros(125), 1, tag=3)  # 1000 bytes
    elif comm.rank == 1:
        comm.recv(0, tag=3)


def test_counters_track_messages():
    run = run_spmd(2, _one_kilobyte_prog)
    assert run.reports[0].messages_sent == 1
    assert run.reports[0].bytes_sent == 1000
    assert run.reports[1].messages_received == 1
    assert run.reports[1].bytes_received == 1000
