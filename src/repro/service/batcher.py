"""Right-hand-side coalescing: many requests, one block solve.

The direct RS-S apply is a sweep over factorization records whose cost
is dominated by touching the factors, not by the rhs column count —
exactly the shape batching exploits. The :class:`RhsBatcher` groups
concurrent ``method="direct"`` requests against the same cached
factorization, and pays for it only where there is concurrency to
group:

* a request on an *uncontended* factorization solves at once, alone,
  at its submitted shape — it never waits for company it does not have;
* a factorization becomes *contended* when a request for it arrives
  while one of its solves executes. Then the first request *opens* a
  batch and waits up to the window; requests arriving inside it *join*
  (their worker threads return immediately); the opener drains the
  batch and solves all collected right-hand sides at once, fanning
  results back per request;
* it stops being contended after two batches in a row catch no joiner.
  An idle contended factorization is also forgotten when a request for
  another one arrives alone.

The solves are bound by the interpreter lock, so the opener's wait is
what lets the other request threads reach the batch; a request that
arrives to an idle, uncontended factorization has nobody to wait for.

A batch of several is one ``(N, nrhs)`` application: one record sweep,
BLAS-3 GEMMs. A multi-column GEMM may differ from a solo solve in the
last floating-point bits on most BLAS builds. A lone request always
gets a solo solve's bits; a caller that needs them under contention too
sets ``window=0`` (or ``max_batch=1``): every request is then solved
alone, at its submitted shape, as soon as it arrives.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Hashable

import numpy as np

from repro.obs.lockwatch import make_lock

#: callback fulfilling one request: (x, batch_occupancy, t_solve_batch)
FinishFn = Callable[[np.ndarray, int, float], None]
#: callback failing one request
FailFn = Callable[[BaseException], None]
_Item = tuple[np.ndarray, FinishFn, FailFn]


class _Batch:
    __slots__ = ("items", "full")

    def __init__(self, item: _Item) -> None:
        self.items = [item]
        self.full = threading.Event()


class _Key:
    """What the batcher knows about one factorization's traffic."""

    __slots__ = ("running", "open", "contended", "misses")

    def __init__(self) -> None:
        #: solves executing now
        self.running = 0
        #: the batch taking joiners, if any
        self.open: _Batch | None = None
        self.contended = False
        #: contended batches in a row that caught no joiner
        self.misses = 0

    def idle(self) -> bool:
        return not self.running and self.open is None


class RhsBatcher:
    """Coalesces same-factorization solves into block applications.

    A lone request solves immediately; only a contended key's requests
    wait for joiners (see the module docstring). An idle, uncontended
    key holds no state.

    Parameters
    ----------
    window:
        Longest a contended batch waits for joiners, in seconds; ``0``
        disables coalescing (every request solves alone, immediately,
        with a solo solve's bits).
    max_batch:
        Occupancy at which a batch dispatches without waiting out the
        window; ``1`` disables coalescing like ``window=0``.
    on_batch:
        Optional callback receiving each dispatched batch's occupancy.
    """

    def __init__(
        self,
        window: float,
        max_batch: int,
        *,
        on_batch: Callable[[int], None] | None = None,
    ):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._on_batch = on_batch
        self._lock = make_lock("service.batcher")
        self._keys: dict[Hashable, _Key] = {}

    def submit(
        self,
        key: Hashable,
        fact: Any,
        b: np.ndarray,
        finish: FinishFn,
        fail: FailFn,
    ) -> None:
        """Solve one rhs now, or route it into a batch for ``key``.

        The caller thread either returns immediately (joined an open
        batch; its opener will fulfil ``finish``), solves at once (the
        key is uncontended), or opens a batch: it blocks for up to
        ``window`` seconds, then executes the whole batch. ``key`` must
        uniquely identify the factorization *instance* (include
        ``id(fact)``), so a rebuilt entry never joins a batch opened on
        its predecessor.
        """
        item: _Item = (np.asarray(b), finish, fail)
        if self.window <= 0 or self.max_batch == 1:
            # coalescing disabled: solve immediately, never publish a
            # batch a concurrent submitter could join (window=0 must
            # guarantee solo-solve results)
            self._execute(fact, [item])
            return
        with self._lock:
            state = self._keys.get(key)
            if state is not None and state.open is not None:
                batch = state.open
                batch.items.append(item)
                if len(batch.items) >= self.max_batch:
                    # closed and, from here on, executing
                    state.open = None
                    state.running += 1
                    batch.full.set()
                return
            if state is None:
                # a lone request. It drops the records of idle keys too
                # (contended ones: an uncontended key keeps none once
                # idle), or a key whose traffic stopped while contended
                # -- its factorization evicted, say -- keeps one for good
                for stale in [k for k, s in self._keys.items() if s.idle()]:
                    del self._keys[stale]
                state = self._keys[key] = _Key()
            if state.running:
                state.contended = True
                state.misses = 0
            if not state.contended:
                state.running += 1
                batch = None
            else:
                batch = state.open = _Batch(item)
        if batch is None:
            self._execute(fact, [item], key, state)
            return
        # opener: give joiners the window, then drain and execute
        batch.full.wait(self.window)
        with self._lock:
            if state.open is batch:
                state.open = None
                state.running += 1
            if len(batch.items) > 1:
                state.misses = 0
            else:
                state.misses += 1
                state.contended = state.misses < 2
        self._execute(fact, batch.items, key, state)

    # ------------------------------------------------------------------
    def _release(self, key: Hashable, state: _Key) -> None:
        """Clear one solve's executing mark; forget an idle, uncontended key.

        Runs before results are delivered, so a closed-loop caller's
        next request never sees its own predecessor as concurrency.
        """
        with self._lock:
            state.running -= 1
            if state.idle() and not state.contended:
                del self._keys[key]

    def _execute(
        self,
        fact: Any,
        items: list[_Item],
        key: Hashable = None,
        state: _Key | None = None,
    ) -> None:
        if self._on_batch is not None:
            self._on_batch(len(items))
        try:
            t0 = time.perf_counter()
            if len(items) == 1:
                # at the submitted shape, so a lone request keeps solo bits
                xs = [fact.solve(items[0][0])]
            else:
                xs = self._block_solve(fact, [b for b, _fin, _fail in items])
            # one indivisible apply: every member reports it
            t_solve = time.perf_counter() - t0
        except BaseException as exc:
            if state is not None:
                self._release(key, state)
            for _b, _finish, fail in items:
                fail(exc)
            return
        if state is not None:
            self._release(key, state)
        size = len(items)
        for (_b, finish, fail), x in zip(items, xs):
            try:
                finish(x, size, t_solve)
            except BaseException as exc:
                # a broken per-request callback must not strand the
                # rest of the batch; route it to that request's fail
                fail(exc)

    @staticmethod
    def _block_solve(fact: Any, bs: list[np.ndarray]) -> list[np.ndarray]:
        """One ``(N, nrhs)`` apply, split back to the submitted shapes."""
        n = bs[0].shape[0]
        cols = [b.reshape(n, -1) for b in bs]
        block = np.concatenate(cols, axis=1)
        X = fact.solve(block)
        out: list[np.ndarray] = []
        offset = 0
        for b, c in zip(bs, cols):
            width = c.shape[1]
            piece = X[:, offset : offset + width]
            out.append(piece[:, 0] if b.ndim == 1 else piece)
            offset += width
        return out
