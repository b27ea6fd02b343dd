"""Runtime lock-order checker behind the ``REPRO_OBS`` flag.

The project's one lock-order guard: it observes the orders that
*actually happen*, across every call path, instead of the ones a
static reading can resolve. :func:`make_lock` is the project's lock
factory:

* with observability off (the default) it returns a plain
  ``threading.Lock``/``RLock`` — zero overhead, byte-identical
  behavior;
* with ``REPRO_OBS=on`` it returns a :class:`WatchedLock` that keeps a
  thread-local stack of held lock names and a process-wide edge set
  ``held -> acquired``. An acquisition whose new edge closes a cycle
  logs one warning (per direction pair) on the ``repro.lockwatch``
  logger with both paths — the debugging artifact a once-a-week
  deadlock hang never leaves behind. Acquiring a second *instance* of
  a held lock name (``other.shutdown()`` under ``self._lock``) records
  a self-edge and warns too: two instances of one lock have no defined
  order. Re-entering the same instance records nothing.

The flag is read once, at lock *creation*: pools, caches and servers
create their locks at construction, so toggling ``REPRO_OBS`` later
changes new objects only — exactly the tracer's semantics.

Lock names follow the span grammar (``vmpi.pool``, ``service.cache``)
so lock-order warnings join against trace output.
"""

from __future__ import annotations

import logging
import threading
from typing import Any

from repro.util.config import obs_enabled

logger = logging.getLogger("repro.lockwatch")

#: observed acquisition orders: (held_name, acquired_name)
_EDGES: set = set()
#: directions already warned about, so a hot path warns once
_WARNED: set = set()
_EDGES_LOCK = threading.Lock()
#: per thread: the held locks as (name, id(lock)), oldest first
_HELD = threading.local()


def _held_stack() -> list:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = _HELD.stack = []
    return stack


def _reaches(src: str, dst: str) -> bool:
    """Whether ``src`` can reach ``dst`` through the observed edges."""
    stack, seen = [src], {src}
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for a, b in _EDGES:
            if a == node and b not in seen:
                seen.add(b)
                stack.append(b)
    return False


class WatchedLock:
    """A named lock recording acquisition order (REPRO_OBS=on only)."""

    def __init__(self, name: str, *, reentrant: bool = False):
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._note_order()
        got = self._inner.acquire(blocking, timeout)
        if got:
            _held_stack().append((self.name, id(self)))
        return got

    def release(self) -> None:
        stack = _held_stack()
        # release order may differ from acquire order; drop the newest
        # matching entry
        key = (self.name, id(self))
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == key:
                del stack[i]
                break
        self._inner.release()

    def __enter__(self) -> "WatchedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def _note_order(self) -> None:
        held = _held_stack()
        for prior, prior_id in held:
            if prior_id == id(self):
                continue  # reentrant re-acquire: no ordering information
            edge = (prior, self.name)
            if edge in _EDGES:
                continue
            with _EDGES_LOCK:
                if edge in _EDGES:
                    continue
                # a self-edge (two instances of one name) is a cycle too
                cycle = _reaches(self.name, prior)
                _EDGES.add(edge)
                if not cycle or edge in _WARNED:
                    continue
                _WARNED.add(edge)
            stack = [name for name, _ in held]
            if prior == self.name:
                logger.warning(
                    "lock-order hazard: acquiring a second instance of %r "
                    "while holding another — two instances of one lock "
                    "have no defined order (held stack: %r)",
                    self.name, stack,
                )
            else:
                logger.warning(
                    "lock-order inversion: acquiring %r while holding "
                    "%r, but the opposite order %r -> %r was also "
                    "observed — two threads interleaving these paths "
                    "can deadlock (held stack: %r)",
                    self.name, prior, self.name, prior, stack,
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RLock" if self.reentrant else "Lock"
        return f"WatchedLock({self.name!r}, {kind})"


def make_lock(name: str, *, reentrant: bool = False) -> Any:
    """The project's lock factory: plain lock, or watched under REPRO_OBS.

    ``name`` follows the span grammar (``vmpi.pool.registry``) and is
    the node label in lock-order warnings.
    """
    if obs_enabled():
        return WatchedLock(name, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


def lock_order_edges() -> set:
    """Snapshot of the observed (held, acquired) order edges."""
    with _EDGES_LOCK:
        return set(_EDGES)


def reset_lock_watch() -> None:
    """Clear observed edges and warning state (tests)."""
    with _EDGES_LOCK:
        _EDGES.clear()
        _WARNED.clear()
    _HELD.stack = []
