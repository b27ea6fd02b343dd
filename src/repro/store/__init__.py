"""Resident factorization store: state that lives where the work is.

The paper's economics — one expensive factorization, arbitrarily many
cheap solves — breaks down the moment the factorization has to *move*:
re-shipped to rank workers per solve, rebuilt per front-end process,
refactored per restart. This package keeps it resident at three tiers:

1. **worker-resident** (:mod:`repro.store.resident`) — pooled rank
   workers retain their ``PartialLU``/``BoxRecord`` shards; repeated
   solves dispatch O(rhs) bytes instead of O(factorization).
2. **cross-process shared** (:mod:`repro.store.shared`) — cache entries
   published in the vmpi message format as one named segment + a sidecar
   file; other serving processes attach zero-copy, with refcounted
   unlink and a lockfile single-flight protocol.
3. **disk spill / warm start** (:mod:`repro.store.disk`) — evicted and
   shutdown-time entries persist as files under ``REPRO_STORE_DIR`` in
   the same array layout (a header checked before the body, the arrays
   at aligned offsets, one SHA-256 over both); cache misses consult them
   before factoring and rebuild every array as a view of the one mapping
   the file was read into.

Tiers 2 and 3 and the vmpi transport share one codec: the pickle walk
that takes the arrays out of band, their aligned layout and the
zero-copy rebuild live in :mod:`repro.vmpi.process_backend`; the
sidecar of tier 2 is a tier-3 file whose body is the pickled
``Packed``.

Tiers 2 and 3 are on exactly when ``REPRO_STORE_DIR`` is set; tier 1 is
how the process backend solves, always (``REPRO_STORE_*`` knobs,
documented in the README "Resident store" section).
"""

from repro.store.resident import (
    ResidentHandle,
    new_entry_id,
    resident_supported,
)
from repro.store.store import FactorizationStore

__all__ = [
    "FactorizationStore",
    "ResidentHandle",
    "new_entry_id",
    "resident_supported",
]
