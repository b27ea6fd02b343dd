"""Right-hand-side coalescing: many requests, one block solve.

The direct RS-S apply is a sweep over factorization records whose cost
is dominated by touching the factors, not by the rhs column count —
exactly the shape batching exploits. The :class:`RhsBatcher` groups
concurrent ``method="direct"`` requests against the same cached
factorization: the first request *opens* a batch and waits a
configurable window; requests arriving inside the window *join* (their
worker threads return immediately); the opener then drains the batch
and solves all collected right-hand sides at once, fanning results back
per request.

A batch of several is one ``(N, nrhs)`` application: one record sweep,
BLAS-3 GEMMs. A multi-column GEMM may differ from a solo solve in the
last floating-point bits on most BLAS builds, so a caller that needs a
solo solve's bits sets ``window=0``: every request is then solved alone,
at its submitted shape, as soon as it arrives.
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


class _Batch:
    __slots__ = ("items", "closed", "full")

    def __init__(self) -> None:
        self.items: list[tuple[np.ndarray, FinishFn, FailFn]] = []
        self.closed = False
        self.full = threading.Event()


class RhsBatcher:
    """Coalesces same-factorization solves into block applications.

    Parameters
    ----------
    window:
        Seconds the batch opener waits for joiners; ``0`` disables
        coalescing (every request solves alone, immediately, with a solo
        solve's bits).
    max_batch:
        Occupancy at which a batch dispatches without waiting out the
        window.
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
        self._open: dict[Hashable, _Batch] = {}

    def submit(
        self,
        key: Hashable,
        fact: Any,
        b: np.ndarray,
        finish: FinishFn,
        fail: FailFn,
    ) -> None:
        """Route one rhs into the open batch for ``key`` (or open one).

        The caller thread either returns immediately (joined an open
        batch; the opener will fulfil ``finish``) or becomes the opener:
        it blocks for up to ``window`` seconds, then executes the whole
        batch. ``key`` must uniquely identify the factorization
        *instance* (include ``id(fact)``), so a rebuilt entry never
        joins a batch opened on its predecessor.
        """
        b = np.asarray(b)
        if self.window <= 0 or self.max_batch == 1:
            # coalescing disabled: solve immediately, never publish a
            # batch a concurrent submitter could join (window=0 must
            # guarantee solo-solve results)
            self._execute(fact, [(b, finish, fail)])
            return
        with self._lock:
            batch = self._open.get(key)
            if batch is not None and not batch.closed:
                batch.items.append((b, finish, fail))
                if len(batch.items) >= self.max_batch:
                    batch.closed = True
                    batch.full.set()
                return
            batch = _Batch()
            batch.items.append((b, finish, fail))
            self._open[key] = batch
        # opener: give joiners the window, then drain and execute
        batch.full.wait(self.window)
        with self._lock:
            batch.closed = True
            if self._open.get(key) is batch:
                del self._open[key]
            items = list(batch.items)
        self._execute(fact, items)

    # ------------------------------------------------------------------
    def _execute(self, fact: Any, items: list[tuple[np.ndarray, FinishFn, FailFn]]) -> None:
        if self._on_batch is not None:
            self._on_batch(len(items))
        try:
            t0 = time.perf_counter()
            if len(items) == 1:
                # at the submitted shape, so window=0 keeps solo bits
                xs = [fact.solve(items[0][0])]
            else:
                xs = self._block_solve(fact, [b for b, _fin, _fail in items])
            # one indivisible apply: every member reports it
            t_solve = time.perf_counter() - t0
        except BaseException as exc:
            for _b, _finish, fail in items:
                fail(exc)
            return
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
