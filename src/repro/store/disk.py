"""Tier 3 of the resident store: disk spill files and warm starts.

An entry spills as one self-verifying file under the store root:
a pickled envelope carrying the store format version, the numpy
version, the cache key's canonical repr, and a BLAKE2b checksum over
the pickled factorization payload. Loads verify all four before
unpickling the payload; any mismatch — truncated file, flipped bits, a
different numpy, a key-digest collision — removes the file and reports
a miss, so a corrupt spill can never poison a warm start. Writes are
atomic (`tmp` + ``os.replace``) so a crash mid-spill leaves either the
old file or none.
"""

from __future__ import annotations

import hashlib
import os
import pickle

import numpy as np

#: bumped whenever the spill envelope or the pickled payload layout
#: changes incompatibly; part of both the filename digest and the
#: envelope check. 2: ``SRSFactorization`` lost its ``timings`` field
#: (a format-1 payload pickles a class that no longer exists). 3: a
#: shared sidecar holds one ``Packed`` (pickle stream + one segment)
#: where format 2 held a tree of per-array block references. 4: a
#: pickled ``PartialLU`` carries its row permutation (``_perm``); a
#: format-3 one would fail with ``AttributeError`` at its first solve.
#: 5: a ``BoxRecord`` holds the multipliers ``e_cr`` / ``g_rc`` where
#: format 4 held the sparsified blocks ``x_cr`` / ``x_rc``.
STORE_FORMAT = 5

_PICKLE = pickle.HIGHEST_PROTOCOL


def checksum(data: bytes) -> str:
    """Hex BLAKE2b digest used for spill/sidecar payload integrity."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def key_digest(key) -> str:
    """Stable filename digest of a cache key.

    Keys are ``(problem fingerprint, strategy setup key)`` tuples of
    strings/numbers/tuples, whose ``repr`` is deterministic across
    processes — the property the cross-process tiers rest on.
    """
    text = f"v{STORE_FORMAT}:{key!r}"
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def envelope(key, payload: bytes) -> dict:
    """The self-verifying on-disk wrapper for ``payload``."""
    return {
        "format": STORE_FORMAT,
        "numpy": np.__version__,
        "key": repr(key),
        "checksum": checksum(payload),
        "payload": payload,
        "pid": os.getpid(),
    }


def check_envelope(env, key) -> str | None:
    """Why ``env`` cannot be trusted for ``key``; ``None`` when it can."""
    if not isinstance(env, dict):
        return "malformed"
    if env.get("format") != STORE_FORMAT:
        return "format"
    if env.get("numpy") != np.__version__:
        return "version"
    if env.get("key") != repr(key):
        return "key"
    payload = env.get("payload")
    if not isinstance(payload, bytes) or env.get("checksum") != checksum(payload):
        return "checksum"
    return None


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a same-directory rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def remove_quiet(path: str) -> None:
    """Remove a store file, tolerating concurrent removal."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def read_envelope(path: str):
    """Load an envelope file; ``None`` when absent or unreadable."""
    try:
        with open(path, "rb") as fh:
            return pickle.loads(fh.read())
    except FileNotFoundError:
        return None
    except Exception:  # noqa: BLE001 - truncated/corrupt pickle is a miss
        return "malformed"


def spill_entry(path: str, key, fact) -> None:
    """Serialize ``fact`` into an atomic, checksummed spill file."""
    payload = pickle.dumps(fact, protocol=_PICKLE)
    write_atomic(path, pickle.dumps(envelope(key, payload), protocol=_PICKLE))


def load_spill(path: str, key):
    """``(fact, None)`` from a verified spill file, or ``(None, reason)``.

    A failing file is removed so the caller factors fresh and the next
    spill overwrites it.
    """
    env = read_envelope(path)
    if env is None:
        return None, None
    reason = "malformed" if env == "malformed" else check_envelope(env, key)
    if reason is not None:
        remove_quiet(path)
        return None, reason
    try:
        return pickle.loads(env["payload"]), None
    except Exception:  # noqa: BLE001 - payload unpickle failed: treat as corrupt
        remove_quiet(path)
        return None, "payload"
