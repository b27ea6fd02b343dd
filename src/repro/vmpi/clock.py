"""Simulated per-rank clocks and the alpha-beta communication model.

Each rank owns a :class:`SimClock`. Compute sections are timed with
``time.thread_time`` (per-thread CPU time) and advance the simulated
clock. That is not backend-neutral for numpy-heavy work: at N = 16384
(Laplace volume, strict), thread ranks read ``sim_t_fact`` 19 % (p = 4)
and 54 % (p = 16) above process ranks on the same factorization, and
the cause is not identified. Message delivery follows the classic
postal/LogP model: a message sent at sender-time ``t`` with ``n``
payload bytes becomes available to the receiver at
``t + alpha + beta * n``; a blocking receive advances the receiver's
clock to at least that availability time.

Two presets mirror the paper's two placements (Table IV vs Table VII):
``INTRA_NODE`` (many processes per node, shared-memory transport) and
``INTER_NODE`` (one process per compute node, network transport).
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Alpha-beta cost model for point-to-point messages.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-byte transfer time in seconds (inverse bandwidth).
    sender_overhead:
        CPU time the *sender* spends injecting a message.
    compute_scale:
        Multiplier applied to measured compute time — lets benchmarks
        model faster/slower cores without changing the workload.
    """

    alpha: float = 1.0e-6
    beta: float = 1.0 / 10.0e9
    sender_overhead: float = 2.5e-7
    compute_scale: float = 1.0

    def transfer_time(self, nbytes: int) -> float:
        return self.alpha + self.beta * float(nbytes)


#: shared-memory transport between processes on one node
INTRA_NODE = CostModel(alpha=1.0e-6, beta=1.0 / 20.0e9, sender_overhead=2.5e-7)
#: network transport, one process per node (HPE Slingshot-ish numbers)
INTER_NODE = CostModel(alpha=5.0e-6, beta=1.0 / 10.0e9, sender_overhead=5.0e-7)


class SimClock:
    """Simulated local time of one rank."""

    def __init__(self, cost_model: CostModel | None = None):
        self.model = cost_model or CostModel()
        self.local_time = 0.0
        self.compute_time = 0.0
        self.comm_time = 0.0  # time spent waiting on / paying for messages

    def compute(self) -> "_ComputeSection":
        """Context manager: measured CPU time advances the clock."""
        return _ComputeSection(self)

    def add_compute(self, seconds: float) -> None:
        seconds *= self.model.compute_scale
        self.local_time += seconds
        self.compute_time += seconds

    def on_send(self) -> float:
        """Charge the send overhead; returns the message timestamp."""
        self.local_time += self.model.sender_overhead
        self.comm_time += self.model.sender_overhead
        return self.local_time

    def on_receive(self, sent_time: float, nbytes: int) -> None:
        """Advance to the message availability time (blocking receive)."""
        available = sent_time + self.model.transfer_time(nbytes)
        if available > self.local_time:
            self.comm_time += available - self.local_time
            self.local_time = available

    @property
    def other_time(self) -> float:
        """Everything that is not compute (the paper's ``t_other``)."""
        return self.local_time - self.compute_time


class _ComputeSection:
    def __init__(self, clock: SimClock):
        self._clock = clock
        self._t0 = 0.0

    def __enter__(self) -> "_ComputeSection":
        self._t0 = time.thread_time()
        return self

    def __exit__(self, *exc) -> None:
        self._clock.add_compute(time.thread_time() - self._t0)
