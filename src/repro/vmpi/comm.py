"""The communicator: point-to-point sends/receives and collectives.

Collectives are built from point-to-point messages using binomial
trees, so their simulated cost follows from the alpha-beta model with
the textbook ``O(log p)`` depth — this is what makes the coarse levels
of the parallel factorization behave like a reduction (Sec. IV-B).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.vmpi.clock import CostModel, SimClock
from repro.vmpi.transport import Message, payload_nbytes, sanitize


class DeadlockError(RuntimeError):
    """A blocking receive timed out — the SPMD program is stuck."""


class Counters:
    """Per-rank communication counters (Sec. IV-B accounting)."""

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.bytes_received = 0


class Comm:
    """Communicator bound to one rank of an SPMD run."""

    #: default blocking-receive timeout (seconds of *wall* time)
    TIMEOUT = 600.0

    def __init__(
        self,
        transport,  # Transport-shaped: .nranks, .put(Message), .get(rank, timeout)
        rank: int,
        *,
        cost_model: CostModel | None = None,
    ):
        self.transport = transport
        self.rank = rank
        self.size = transport.nranks
        self.clock = SimClock(cost_model)
        self.counters = Counters()
        # out-of-order buffer: (source, tag) -> fifo list of messages
        self._pending: dict[tuple[int, int], list[Message]] = {}

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Buffered (non-blocking) send."""
        if dest == self.rank:
            raise ValueError("send to self is not supported; keep data local")
        # process-isolated transports make the defensive deep copy redundant
        needs_copy = getattr(self.transport, "needs_copy", True)
        data = sanitize(payload) if needs_copy else payload
        nbytes = payload_nbytes(data)
        stamp = self.clock.on_send()
        self.transport.put(Message(self.rank, dest, tag, data, nbytes, stamp))
        # count only after the transport accepted the message, so a
        # failed put (e.g. unpicklable payload on the process backend)
        # does not skew cross-backend counter parity
        self.counters.messages_sent += 1
        self.counters.bytes_sent += nbytes

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive matching ``(source, tag)``."""
        msg = self._match(source, tag)
        self.clock.on_receive(msg.sent_time, msg.nbytes)
        self.counters.messages_received += 1
        self.counters.bytes_received += msg.nbytes
        return msg.payload

    def _match(self, source: int, tag: int) -> Message:
        key = (source, tag)
        fifo = self._pending.get(key)
        if fifo:
            msg = fifo.pop(0)
            if not fifo:
                del self._pending[key]
            return msg
        while True:
            try:
                msg = self.transport.get(self.rank, timeout=self.TIMEOUT)
            except Exception as exc:
                raise DeadlockError(
                    f"rank {self.rank}: timed out waiting for message "
                    f"(source={source}, tag={tag}); pending keys: {list(self._pending)}"
                ) from exc
            if msg.source == source and msg.tag == tag:
                return msg
            self._pending.setdefault((msg.source, msg.tag), []).append(msg)

    # ------------------------------------------------------------------
    # collectives (binomial trees rooted wherever needed)
    # ------------------------------------------------------------------
    def barrier(self, tag: int = -1) -> None:
        """Synchronize all ranks (reduce-to-0 then broadcast)."""
        self._reduce_tree(None, lambda a, b: None, 0, tag)
        self.bcast(None, 0, tag=tag)

    def bcast(self, payload: Any, root: int, tag: int = -2) -> Any:
        """Broadcast ``payload`` from ``root`` down a binomial tree."""
        rel = (self.rank - root) % self.size
        if rel != 0:
            parent = (root + _tree_parent(rel)) % self.size
            payload = self.recv(parent, tag)
        for child_rel in _tree_children(rel, self.size):
            self.send(payload, (root + child_rel) % self.size, tag)
        return payload

    def reduce(self, payload: Any, op: Callable[[Any, Any], Any], root: int, tag: int = -3) -> Any:
        """Reduce with ``op`` to ``root``; returns the result at root, else None."""
        return self._reduce_tree(payload, op, root, tag)

    def allreduce(self, payload: Any, op: Callable[[Any, Any], Any], tag: int = -4) -> Any:
        out = self._reduce_tree(payload, op, 0, tag)
        return self.bcast(out, 0, tag=tag)

    def gather(self, payload: Any, root: int, tag: int = -5) -> list[Any] | None:
        """Gather one payload per rank to ``root`` (rank order preserved)."""
        combined = self._reduce_tree({self.rank: payload}, _merge_dicts, root, tag)
        if self.rank != root:
            return None
        assert combined is not None
        return [combined[r] for r in range(self.size)]

    def allgather(self, payload: Any, tag: int = -6) -> list[Any]:
        out = self.gather(payload, 0, tag=tag)
        return self.bcast(out, 0, tag=tag)

    def scatter(self, payloads: list[Any] | None, root: int, tag: int = -7) -> Any:
        """Scatter one item per rank from ``root``."""
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError("root must provide exactly one payload per rank")
            # send down a binomial tree: each subtree gets its slice
            items = {r: payloads[r] for r in range(self.size)}
        else:
            items = None
        mine = self._scatter_tree(items, root, tag)
        return mine

    # -- tree helpers ----------------------------------------------------
    def _reduce_tree(self, payload: Any, op: Callable[[Any, Any], Any], root: int, tag: int) -> Any:
        rel = (self.rank - root) % self.size
        acc = payload
        for child_rel in reversed(_tree_children(rel, self.size)):
            child_val = self.recv((root + child_rel) % self.size, tag)
            acc = op(acc, child_val)
        if rel != 0:
            self.send(acc, (root + _tree_parent(rel)) % self.size, tag)
            return None
        return acc

    def _scatter_tree(self, items: dict[int, Any] | None, root: int, tag: int) -> Any:
        rel = (self.rank - root) % self.size
        if rel != 0:
            parent = (root + _tree_parent(rel)) % self.size
            items = self.recv(parent, tag)
        assert items is not None
        for child_rel in _tree_children(rel, self.size):
            child_rank = (root + child_rel) % self.size
            subtree = _subtree_rel_ranks(child_rel, self.size)
            chunk = {(root + r) % self.size: items[(root + r) % self.size] for r in subtree}
            self.send(chunk, child_rank, tag)
        return items[self.rank]


def _tree_parent(rel: int) -> int:
    """Parent in the binomial broadcast tree (relative numbering)."""
    return rel & (rel - 1)  # clear lowest set bit


def _tree_children(rel: int, size: int) -> list[int]:
    """Children of ``rel`` in the binomial tree over ``range(size)``."""
    children = []
    low = rel & -rel if rel else 1 << 62
    bit = 1
    while bit < low and rel + bit < size:
        children.append(rel + bit)
        bit <<= 1
    if rel == 0:
        children = []
        bit = 1
        while bit < size:
            children.append(bit)
            bit <<= 1
    return children


def _subtree_rel_ranks(child_rel: int, size: int) -> list[int]:
    """All relative ranks in the binomial subtree rooted at ``child_rel``."""
    out = [child_rel]
    for grand in _tree_children(child_rel, size):
        out.extend(_subtree_rel_ranks(grand, size))
    return out


def _merge_dicts(a: dict | None, b: dict | None) -> dict:
    out = dict(a or {})
    out.update(b or {})
    return out
