"""The uniform outcome record of every ``repro.solve`` call."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class SolveReport:
    """What happened during one solve, identically shaped for all methods.

    Attributes
    ----------
    x:
        The computed solution, ``(N,)`` or ``(N, nrhs)``.
    method / execution:
        The method that ran and the *resolved* execution mode
        (``"auto"`` is reported as the thread/process choice it made).
    relres:
        True relative residual ``||A x - b|| / ||b||`` measured with the
        problem's forward operator — computed lazily on first access
        (one operator apply), so callers that never read it
        (iteration-count sweeps) pay nothing.
    iterations:
        Krylov iteration count (0 for the direct methods).
    converged:
        Whether the iterative refinement met its tolerance (always
        ``True`` for direct methods).
    t_setup / t_solve:
        Wall-clock seconds building the factorization/preconditioner
        and applying it. ``t_setup`` is 0 when a cached factorization
        was supplied (the :class:`~repro.api.facade.Solver` path).
    memory_bytes:
        Bytes held by the factorization/preconditioner.
    sim_t_fact / sim_t_solve:
        Simulated parallel clock of the distributed engines (the
        paper's ``t_fact``/``t_solve``); ``None`` for sequential runs.
    sim_t_comp / sim_t_other:
        The critical-path split of ``sim_t_fact`` into compute vs
        communication/idle (Table II's ``t_comp``/``t_other``).
    messages / comm_bytes:
        Total messages and payload bytes sent during the distributed
        factorization; ``None`` for sequential runs.
    factorization:
        The setup product that produced ``x`` (an object satisfying the
        :class:`~repro.api.strategies.Factorization` protocol), for
        callers that want rank statistics, per-rank counters, or to
        reuse it via ``solve(..., factorization=...)``.
    problem / rhs:
        What was solved — kept so :attr:`relres` can be evaluated
        lazily.
    krylov:
        The raw :class:`~repro.iterative.cg.CGResult` /
        :class:`~repro.iterative.gmres.GMRESResult` when an iterative
        method ran (residual history lives here), else ``None``.
    config:
        The :class:`~repro.api.config.SolveConfig` that produced this.
    """

    x: np.ndarray
    method: str
    execution: str
    iterations: int
    converged: bool
    t_setup: float
    t_solve: float
    memory_bytes: int | None = None
    sim_t_fact: float | None = None
    sim_t_solve: float | None = None
    sim_t_comp: float | None = None
    sim_t_other: float | None = None
    messages: int | None = None
    comm_bytes: int | None = None
    #: serving metadata (set by :mod:`repro.service`, ``None`` otherwise):
    #: whether the factorization came out of the service cache
    cache_hit: bool | None = None
    #: how many requests shared the coalesced block solve (1 = solo)
    batch_size: int | None = None
    #: seconds between request submission and the start of its solve
    t_queue: float | None = None
    #: request id assigned by the service (echoed by the HTTP front)
    request_id: str | None = None
    #: per-solve numerical summary (a
    #: :class:`~repro.obs.health.HealthReport`): per-level skeleton
    #: ranks/compression plus the Krylov refinement outcome; ``None``
    #: when the factorization carries no rank stats and no Krylov ran
    health: Any | None = None
    krylov: Any | None = field(default=None, repr=False)
    config: Any | None = field(default=None, repr=False)
    factorization: Any | None = field(default=None, repr=False)
    problem: Any | None = field(default=None, repr=False)
    rhs: np.ndarray | None = field(default=None, repr=False)
    _relres: float | None = field(default=None, repr=False)

    @property
    def relres(self) -> float:
        """True relative residual, computed (and cached) on demand."""
        if self._relres is None:
            if self.problem is None or self.rhs is None:
                raise ValueError("relres unavailable: report has no problem/rhs")
            self._relres = float(self.problem.relres(self.x, self.rhs))
        return self._relres

    @property
    def residual_history(self) -> list[float]:
        """Per-iteration relative residuals (``[relres]`` for direct)."""
        if self.krylov is not None:
            return self.krylov.residual_history
        return [self.relres]

    def to_dict(self, *, include_relres: bool = True) -> dict:
        """JSON-serializable scalars of this report (no arrays/objects).

        ``include_relres=True`` evaluates the lazy true residual (one
        forward-operator apply); pass ``False`` when the caller never
        needs it and wants the record for free.
        """
        out = {
            "method": self.method,
            "execution": self.execution,
            "n": int(np.asarray(self.x).shape[0]),
            "nrhs": (
                int(np.asarray(self.x).shape[1]) if np.asarray(self.x).ndim > 1 else 1
            ),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "t_setup": float(self.t_setup),
            "t_solve": float(self.t_solve),
            "memory_bytes": (
                None if self.memory_bytes is None else int(self.memory_bytes)
            ),
            "sim_t_fact": self.sim_t_fact,
            "sim_t_solve": self.sim_t_solve,
            "sim_t_comp": self.sim_t_comp,
            "sim_t_other": self.sim_t_other,
            "messages": self.messages,
            "comm_bytes": self.comm_bytes,
        }
        if self.cache_hit is not None:
            out["cache_hit"] = bool(self.cache_hit)
        if self.batch_size is not None:
            out["batch_size"] = int(self.batch_size)
        if self.t_queue is not None:
            out["t_queue"] = float(self.t_queue)
        if self.request_id is not None:
            out["request_id"] = str(self.request_id)
        if self.health is not None:
            out["health"] = self.health.to_dict()
        if include_relres:
            out["relres"] = self.relres
        if self.krylov is not None:
            out["residual_history"] = [
                float(r) for r in self.krylov.residual_history
            ]
        return out

    def to_json(self, *, indent: int | None = None, include_relres: bool = True) -> str:
        """This report as a JSON string (the benchmark-harness format)."""
        return json.dumps(self.to_dict(include_relres=include_relres), indent=indent)

    def summary(self) -> str:
        """One informative line, for examples and benchmark logs."""
        its = f", {self.iterations} its" if self.iterations else ""
        mem = (
            f", {self.memory_bytes / 1e6:.1f} MB"
            if self.memory_bytes is not None
            else ""
        )
        sim = (
            f", sim t_fact {self.sim_t_fact:.3f}s"
            if self.sim_t_fact is not None
            else ""
        )
        return (
            f"{self.method}/{self.execution}: relres {self.relres:.2e}{its}, "
            f"setup {self.t_setup:.2f}s + solve {self.t_solve * 1e3:.1f}ms{mem}{sim}"
        )
