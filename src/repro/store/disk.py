"""Tier 3 of the resident store: disk spill files and warm starts.

An entry spills as one self-verifying file under the store root, laid
out like a message of the vmpi codec
(:func:`~repro.vmpi.process_backend.dump_out_of_band`,
:func:`~repro.vmpi.process_backend.aligned_spans`)::

    MAGIC (8 bytes) | header length (u64 little-endian) | header | pad
    body: pickle protocol-5 stream | pad | array | pad | array | ...

The header is a small pickled dict: the store format, the numpy
version, the cache key's canonical repr, the stream length, the array
spans, the body size, and a hash-list digest: the SHA-256 of every
other header field's repr followed by the SHA-256 of each
:data:`CHUNK`-byte slice of the body (alignment padding included),
counted from the body's start. The body starts on a
:data:`~repro.vmpi.process_backend.ALIGN`-byte boundary of the file,
and every array on one of the body.

A load checks the header before it reads the body: a foreign format,
numpy version or key is rejected without touching the rest of the file.
Then the body's chunks are read (``os.preadv`` on the descriptor the
header came from) into one page-aligned anonymous mapping and each is
hashed as soon as it is read, on as many threads as the process may
use CPUs; the factorization is rebuilt with every array a view of that
mapping (:func:`~repro.vmpi.process_backend.load_out_of_band`) — no
copy after the read. Any mismatch — truncated or extended file, flipped
bits, a different numpy, a key-digest collision — removes the file and
reports a miss, so a corrupt spill can never poison a warm start.
Writes are atomic (:func:`repro.util.write_atomic`: a per-call temp
file + ``os.replace``), so a crash or a concurrent writer leaves either
a whole file or none.

Tier 2 writes its sidecar through the same two functions; its body is
the pickled :class:`~repro.vmpi.process_backend.Packed`.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pickle
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.util import write_atomic
from repro.vmpi.backend import effective_cpu_count
from repro.vmpi.process_backend import (
    ALIGN,
    aligned_spans,
    dump_out_of_band,
    load_out_of_band,
)

#: bumped whenever the file layout or the pickled payload layout
#: changes incompatibly; part of both the filename digest and the
#: header check. 2: ``SRSFactorization`` lost its ``timings`` field
#: (a format-1 payload pickles a class that no longer exists). 3: a
#: shared sidecar holds one ``Packed`` (pickle stream + one segment)
#: where format 2 held a tree of per-array block references. 4: a
#: pickled ``PartialLU`` carries its row permutation (``_perm``); a
#: format-3 one would fail with ``AttributeError`` at its first solve.
#: 5: a ``BoxRecord`` holds the multipliers ``e_cr`` / ``g_rc`` where
#: format 4 held the sparsified blocks ``x_cr`` / ``x_rc``. 6: a
#: header-first file with the arrays out of band at aligned offsets
#: and a SHA-256 digest, where format 5 was a pickled envelope around
#: one BLAKE2b-checked payload pickle. 7: a ``WorkerResult`` holds its
#: records and ``nlevels`` only (no per-level plans, no ``RankStats``),
#: and a ``ParallelFactorization`` pickles itself, without its last
#: solve run and with its factor run's reports only. 8: the digest is a
#: hash list (one SHA-256 per :data:`CHUNK` of the body) where format 7
#: hashed the whole body in one pass. 9: a ``DenseLUFactorization``
#: holds one ``PartialLU`` (``_lu``) where format 8 held ``n`` and a
#: ``(lu, piv)`` tuple; a format-8 one fails at ``memory_bytes()``.
STORE_FORMAT = 9

#: the body is hashed in slices of this many bytes, counted from its
#: start; a load reads and hashes the slices in parallel
CHUNK = 4 << 20

#: the first 8 bytes of every store file
MAGIC = b"REPRO\x00SF"

_PREFIX = struct.Struct("<8sQ")

#: the header fields the digest covers, in the order it covers them
_FIELDS = ("format", "numpy", "key", "stream", "spans", "body")


def key_digest(key) -> str:
    """Stable filename digest of a cache key.

    Keys are ``(problem fingerprint, method setup key)`` tuples of
    strings/numbers/tuples, whose ``repr`` is deterministic across
    processes — the property the cross-process tiers rest on.
    """
    text = f"v{STORE_FORMAT}:{key!r}"
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _start_digest(header: dict):
    """A SHA-256 seeded with every header field but the digest itself."""
    return hashlib.sha256(repr(tuple(header[f] for f in _FIELDS)).encode())


def header_bytes(header: dict) -> bytes:
    """Magic, length and pickled ``header``, padded to the body's start."""
    data = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    prefix = _PREFIX.pack(MAGIC, len(data)) + data
    return prefix + bytes(-len(prefix) % ALIGN)


def remove_quiet(path: str) -> None:
    """Remove a store file, tolerating concurrent removal."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def spill_entry(path: str, key, obj) -> None:
    """Write ``obj`` to ``path`` as an atomic, checksummed store file.

    The stream and each array's own buffer go straight to the file,
    each byte hashed once as it does, by the hasher of the
    :data:`CHUNK` it falls in; the header, written first with a
    placeholder digest, is rewritten in place once the digest is known
    (its length does not change).
    """
    stream, buffers = dump_out_of_band(obj)
    spans, size = aligned_spans(buffers, start=len(stream))
    header = {
        "format": STORE_FORMAT,
        "numpy": np.__version__,
        "key": repr(key),
        "stream": len(stream),
        "spans": spans,
        "body": size,
        "sha256": "0" * 64,
    }
    digest = _start_digest(header)
    chunk, room = hashlib.sha256(), CHUNK
    with write_atomic(path) as fh:

        def put(data) -> None:  # bytes, or an array's raw byte view
            nonlocal chunk, room
            fh.write(data)
            if len(data) >= room:
                data = memoryview(data)
                while len(data) >= room:
                    chunk.update(data[:room])
                    digest.update(chunk.digest())
                    data, chunk, room = data[room:], hashlib.sha256(), CHUNK
            chunk.update(data)
            room -= len(data)

        fh.write(header_bytes(header))
        put(stream)
        at = len(stream)
        for (offset, nbytes), buf in zip(spans, buffers):
            if offset > at:
                put(bytes(offset - at))
            put(buf)
            at = offset + nbytes
        put(bytes(size - at))
        if room < CHUNK:
            digest.update(chunk.digest())
        header["sha256"] = digest.hexdigest()
        fh.seek(0)
        fh.write(header_bytes(header))


def read_header(fh) -> dict | None:
    """The header of the store file open as ``fh``, positioned at its
    body; ``None`` when the prefix or the header does not parse."""
    prefix = fh.read(_PREFIX.size)
    if len(prefix) != _PREFIX.size:
        return None
    magic, length = _PREFIX.unpack(prefix)
    if magic != MAGIC or length > os.fstat(fh.fileno()).st_size:
        return None
    try:
        header = pickle.loads(fh.read(length))
    except Exception:  # noqa: BLE001 - a corrupt header is a miss
        return None
    if not (
        isinstance(header, dict)
        and all(type(header.get(f)) is int for f in ("stream", "body"))
        and isinstance(header.get("spans"), tuple)
        and all(
            isinstance(span, tuple) and len(span) == 2 and all(type(v) is int for v in span)
            for span in header["spans"]
        )
        and isinstance(header.get("sha256"), str)
        and all(f in header for f in _FIELDS)
    ):
        return None
    fh.seek(-(_PREFIX.size + length) % ALIGN, os.SEEK_CUR)
    return header


def _body_buffer(nbytes: int) -> np.ndarray:
    """A ``uint8`` array over a fresh private anonymous mapping of
    ``nbytes``.

    Page-aligned, so every ``ALIGN`` offset in it is aligned too. Its
    own mapping rather than the heap: it goes back to the OS when the
    last array viewing it dies, where a heap block of a few MiB can keep
    the heap around it from being returned and raise a serving
    process's peak memory. Private, as heap memory is: a forked child
    gets a copy-on-write view, never the parent's pages to write.
    Advised ``MADV_HUGEPAGE`` where ``mmap`` has it: fewer page faults
    while the body is read into it.
    """
    mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        try:
            mapping.madvise(mmap.MADV_HUGEPAGE)
        except OSError:  # a kernel built without huge pages: advice only
            pass
    return np.frombuffer(mapping, dtype=np.uint8)


def _chunk_digests(fd: int, start: int, body: np.ndarray) -> list[bytes | None]:
    """The SHA-256 of each :data:`CHUNK` of ``body``, read from ``fd``
    at ``start`` onwards; ``None`` for a chunk that read short.

    Each chunk is hashed by the thread that read it, right after the
    read; both release the GIL, so one thread per usable CPU reads and
    hashes in parallel. One chunk or one CPU starts no thread.
    """

    def one(i: int) -> bytes | None:
        view = body[i * CHUNK : (i + 1) * CHUNK]
        if os.preadv(fd, [view], start + i * CHUNK) != len(view):
            return None
        return hashlib.sha256(view).digest()

    count = -(-len(body) // CHUNK)
    workers = min(count, effective_cpu_count())
    if workers <= 1:
        return [one(i) for i in range(count)]
    with ThreadPoolExecutor(workers, thread_name_prefix="repro-spill-read") as pool:
        return list(pool.map(one, range(count)))


def _read_checked(fh, key):
    """``(header, body, None)`` from a verified file, else ``(None, None, reason)``."""
    header = read_header(fh)
    if header is None:
        return None, None, "malformed"
    if header["format"] != STORE_FORMAT:
        return None, None, "format"
    if header["numpy"] != np.__version__:
        return None, None, "version"
    if header["key"] != repr(key):
        return None, None, "key"
    size = header["body"]
    if not 0 < header["stream"] <= size or os.fstat(fh.fileno()).st_size != fh.tell() + size:
        return None, None, "malformed"
    body = _body_buffer(size)
    chunks = _chunk_digests(fh.fileno(), fh.tell(), body)
    if None in chunks:  # shrank under us
        return None, None, "malformed"
    digest = _start_digest(header)
    for chunk in chunks:
        digest.update(chunk)
    if digest.hexdigest() != header["sha256"]:
        return None, None, "checksum"
    return header, body, None


def load_spill(path: str, key):
    """``(obj, None)`` from a verified store file, or ``(None, reason)``
    (``reason`` ``None`` when there is no file).

    ``obj``'s arrays are views of the one mapping the body was read
    into. A failing file is removed so the caller factors fresh and
    the next spill overwrites it.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None, None
    with fh:
        header, body, reason = _read_checked(fh, key)
    if reason is None:
        try:
            return load_out_of_band(body[: header["stream"]], body, header["spans"]), None
        except Exception:  # noqa: BLE001 - payload unpickle failed: treat as corrupt
            reason = "payload"
    remove_quiet(path)
    return None, reason
