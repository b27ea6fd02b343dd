"""Tier 3 of the resident store: disk spill files and warm starts.

An entry spills as one self-verifying file under the store root, laid
out like a message of the vmpi codec
(:func:`~repro.vmpi.process_backend.dump_out_of_band`,
:func:`~repro.vmpi.process_backend.aligned_spans`)::

    MAGIC (8 bytes) | header length (u64 little-endian) | header | pad
    body: pickle protocol-5 stream | pad | array | pad | array | ...

The header is a small pickled dict: the store format, the numpy
version, the cache key's canonical repr, the stream length, the array
spans, the body size, and a SHA-256 digest over every other header
field and the whole body (alignment padding included). The body
starts on a :data:`~repro.vmpi.process_backend.ALIGN`-byte boundary of
the file, and every array on one of the body.

A load checks the header before it reads the body: a foreign format,
numpy version or key is rejected without touching the rest of the file.
Then the body is read once, into one page-aligned anonymous mapping,
hashed once, and the factorization is rebuilt with every array a view
of that mapping (:func:`~repro.vmpi.process_backend.load_out_of_band`) — no copy
after the read. Any mismatch — truncated or extended file, flipped
bits, a different numpy, a key-digest collision — removes the file and
reports a miss, so a corrupt spill can never poison a warm start.
Writes are atomic (a per-call temp file + ``os.replace``), so a crash
or a concurrent writer leaves either a whole file or none.

Tier 2 writes its sidecar through the same two functions; its body is
the pickled :class:`~repro.vmpi.process_backend.Packed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import mmap
import os
import pickle
import struct
import tempfile

import numpy as np

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
#: one BLAKE2b-checked payload pickle.
STORE_FORMAT = 6

#: the first 8 bytes of every store file
MAGIC = b"REPRO\x00SF"

_PREFIX = struct.Struct("<8sQ")

#: the header fields the digest covers, in the order it covers them
_FIELDS = ("format", "numpy", "key", "stream", "spans", "body")


def key_digest(key) -> str:
    """Stable filename digest of a cache key.

    Keys are ``(problem fingerprint, strategy setup key)`` tuples of
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


@contextlib.contextmanager
def write_atomic(path: str):
    """A binary file that replaces ``path`` when the block exits cleanly.

    Each call writes its own ``mkstemp`` file next to ``path``, so two
    writers of one path (threads of one process included) never share
    a temp file; the last to finish wins whole. On any failure the temp
    file is removed and ``path`` is left as it was.
    """
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        remove_quiet(tmp)
        raise


def remove_quiet(path: str) -> None:
    """Remove a store file, tolerating concurrent removal."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def spill_entry(path: str, key, obj) -> None:
    """Write ``obj`` to ``path`` as an atomic, checksummed store file.

    The stream and each array's own buffer go straight to the file, one
    SHA-256 updated as they do; the header, written first with a
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
    with write_atomic(path) as fh:

        def put(chunk) -> None:
            fh.write(chunk)
            digest.update(chunk)

        fh.write(header_bytes(header))
        put(stream)
        at = len(stream)
        for (offset, nbytes), buf in zip(spans, buffers):
            put(bytes(offset - at))
            put(buf)
            at = offset + nbytes
        put(bytes(size - at))
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
    """
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE), dtype=np.uint8)


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
    if fh.readinto(body) != size:  # shrank under us
        return None, None, "malformed"
    digest = _start_digest(header)
    digest.update(body)
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
