"""Tier 2 of the resident store: cross-process shared-memory entries.

A published cache entry is the process backend's message format applied
at rest: ``pack(fact, shared=True, min_bytes=0)`` lays every array of
the factorization, whatever their total, into **one** named
``/dev/shm`` segment, and the resulting
:class:`~repro.vmpi.process_backend.Packed` (the pickle
stream, the segment's name, the array offsets) lands in a sidecar file
under the store root. The sidecar is a disk-tier store file
(:func:`~repro.store.disk.spill_entry`), the same header-checked,
SHA-256-verified format as a spill, whose body is the pickled
``Packed``. Another front-end process attaches by loading the sidecar
(:func:`~repro.store.disk.load_spill`) and running ``unpack`` — the
segment maps once, every array is a zero-copy view of it, so N servers
share one resident factorization instead of holding N copies. The
mapping stays open in a process while any array of the attached
factorization is alive there.

Segment lifetime is refcounted through per-process marker files
(``<digest>.ref.<pid>``) next to the sidecar: publish and attach each
write their marker *before* touching the segment, release removes its
own marker and — when no marker belongs to a live process — unlinks the
segment and removes the sidecar. ``/dev/shm`` is left exactly as found
once the last holder releases; a crashed holder's marker is reaped by
the next releaser's liveness scan. The markers are the *only* owner:
publish and attach each take the segment out of their process's
resource tracker (:func:`~repro.vmpi.process_backend.untrack`), which
on Python < 3.13 would otherwise unlink it when that process exits —
under every other holder.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from repro.store.disk import load_spill, remove_quiet, spill_entry
from repro.vmpi.process_backend import pack, release_segment, unpack, untrack


class SharedHold(NamedTuple):
    """What a holder keeps of a published/attached entry: the segment's
    name (``None`` when the entry holds no array) and the array bytes in
    it."""

    segment: str | None
    nbytes: int


def sidecar_path(root: str, digest: str) -> str:
    return os.path.join(root, f"{digest}.shared")


def _ref_path(root: str, digest: str) -> str:
    return os.path.join(root, f"{digest}.ref.{os.getpid()}")


def _ref_pids(root: str, digest: str) -> list[tuple[str, int]]:
    """(path, pid) of every refcount marker for ``digest``."""
    prefix = f"{digest}.ref."
    out = []
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return out
    for name in names:
        if name.startswith(prefix):
            try:
                out.append((os.path.join(root, name), int(name[len(prefix):])))
            except ValueError:
                continue
    return out


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def publish_entry(root: str, digest: str, key, fact) -> SharedHold:
    """Pack ``fact`` into one shared segment + sidecar; returns the hold.

    The refcount marker is written before the sidecar becomes visible,
    so no attacher can ever observe a sidecar with zero markers.
    """
    packed = pack(fact, shared=True, min_bytes=0)
    untrack(packed.segment)
    try:
        with open(_ref_path(root, digest), "wb") as fh:
            fh.write(b"1")
        spill_entry(sidecar_path(root, digest), key, packed)
    except Exception:
        release_segment(packed.segment)
        remove_quiet(_ref_path(root, digest))
        raise
    return SharedHold(packed.segment, packed.shm_nbytes)


def attach_entry(root: str, digest: str, key):
    """``(fact, hold, None)`` mapped zero-copy, or ``(None, None, reason)``.

    A sidecar whose segment is gone (every holder crashed after the
    last clean release) is stale: it is cleaned up and reported as
    ``"stale"`` so the caller falls through to the disk tier.
    """
    packed, reason = load_spill(sidecar_path(root, digest), key)
    if packed is None:
        return None, None, reason
    hold = SharedHold(packed.segment, packed.shm_nbytes)
    # visible to concurrent releasers before we start mapping the segment
    with open(_ref_path(root, digest), "wb") as fh:
        fh.write(b"1")
    try:
        fact = unpack(packed)
    except FileNotFoundError:
        release_entry(root, digest, hold)
        return None, None, "stale"
    untrack(packed.segment)
    return fact, hold, None


def release_entry(root: str, digest: str, hold: SharedHold) -> None:
    """Drop this process's hold; the last live holder unlinks the segment."""
    remove_quiet(_ref_path(root, digest))
    live = False
    for path, pid in _ref_pids(root, digest):
        if _pid_alive(pid):
            live = True
        else:
            remove_quiet(path)  # reap a crashed holder's marker
    if not live:
        release_segment(hold.segment)
        remove_quiet(sidecar_path(root, digest))
