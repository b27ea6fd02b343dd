"""Driver of the in-process workloads (``seq_*`` and ``dist_*``).

Runs inside the workload's session. A run is round 0 (warm-up: builds
the warm factorization and the populated store, timings dropped) plus
whole timed rounds until ``--seconds`` is spent; every round runs every
operation kind in the same order, so each metric's samples are spread
over the whole timed section and all metrics see the same mixture of
machine states.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import numpy as np
import repro
from repro.service import SolveService
from repro.service.http import build_problem
from repro.vmpi import shutdown_all_pools

from . import layers
from .measure import Sampler, timed_rounds
from .probe import ProbeLaunch
from .spec import AUDIT_RHS_SEED, TRACE_ROUNDS, Workload
from .supervisor import REPO_ROOT, session_rss_mb


class Inproc:
    """The state one in-process workload keeps between operations."""

    def __init__(self, wl: Workload, seed: int, tmp: str) -> None:
        self.wl = wl
        self.seed = seed
        self.tmp = tmp
        self.problem = build_problem(wl.problem)
        self._rhs_counter = 0
        self.store_dir = tempfile.mkdtemp(prefix="ledger-store-", dir=tmp)
        #: the warm factorization (round 0's strict factor) and its memory
        self.fact = None
        self.factor_bytes = 0
        self.relres: list[float] = []
        self.audit_rhs = self.problem.random_rhs(AUDIT_RHS_SEED)

    def config(self, mode: str = "strict", method: str = "direct") -> repro.SolveConfig:
        return repro.SolveConfig(
            method=method,
            execution=self.wl.execution,
            ranks=self.wl.ranks,
            factor_mode=mode,
            tol=1e-12,
        )

    def rhs(self, nrhs: int = 1):
        """The next right-hand side: the seed reaches the program only here."""
        self._rhs_counter += 1
        return self.problem.random_rhs(self.seed * 100_003 + self._rhs_counter, nrhs)

    def checked_direct(self, s: Sampler, what: str, report) -> None:
        """Count one direct solve of the audit rhs; its residual is recomputed here."""
        relres = self.problem.relres(report.x, self.audit_rhs)
        self.relres.append(relres)
        s.check(relres <= self.wl.relres_ceiling, f"{what}: relres {relres:.3e}")

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def cold(self, s: Sampler, mode: str):
        report = s.timed(
            f"cold_{mode}",
            lambda: repro.solve(self.problem, self.audit_rhs, self.config(mode)),
        )
        self.checked_direct(s, f"cold {mode}", report)
        return report

    def reload(self, s: Sampler) -> None:
        service = None

        def first_solution():
            nonlocal service
            service = SolveService(store_dir=self.store_dir)
            return service.solve(
                build_problem(self.wl.problem), self.audit_rhs, self.config()
            )

        try:
            report = s.timed("reload", first_solution)
            stats = service.stats()
        finally:
            if service is not None:
                service.close()
        from_disk = stats.store_hits_disk == 1 and stats.factorizations == 0
        s.check(from_disk, f"reload not served from disk: {stats}")
        self.checked_direct(s, "reload", report)

    def round(self, s: Sampler) -> None:
        wl = self.wl
        report = self.cold(s, "strict")
        if self.fact is None:
            self.fact = report.factorization
            self.factor_bytes = report.memory_bytes
            with SolveService(store_dir=self.store_dir) as service:
                # populates the disk tier: shutdown spills the entry
                service.solve(self.problem, self.rhs(), self.config())
        else:
            layers.discard(report.factorization)
        for _ in range(wl.cold_batched):
            layers.discard(self.cold(s, "batched").factorization)

        for k in range(wl.warm):
            b = self.audit_rhs if k == 0 else self.rhs()
            report = s.timed(
                "solve",
                lambda: repro.solve(self.problem, b, self.config(), factorization=self.fact),
            )
            if k == 0:
                self.checked_direct(s, "warm solve", report)
            else:
                s.check(bool(np.isfinite(report.x).all()), "warm solve not finite")
        for _ in range(wl.block):
            rhs_block = self.rhs(wl.block_rhs)
            report = s.timed(
                "block",
                lambda: repro.solve(
                    self.problem, rhs_block, self.config(), factorization=self.fact
                ),
            )
            s.check(report.x.shape == rhs_block.shape, "block solve shape")
        refine_cfg = self.config(method=wl.refine)
        for _ in range(wl.refines):
            b = self.rhs()
            report = s.timed(
                "refine",
                lambda: repro.solve(self.problem, b, refine_cfg, factorization=self.fact),
            )
            relres = self.problem.relres(report.x, b)
            s.check(
                report.converged and relres <= 1e-10,
                f"refine: converged={report.converged} relres {relres:.3e}",
            )
        for _ in range(wl.reloads):
            self.reload(s)

    def setup_launch(self, s: Sampler) -> None:
        argv = [sys.executable, "-m", "benchmarks.ledger.probe", self.wl.name]
        # round 0's launch counts too: a fresh interpreter has no warm-up
        s.timed("setup", lambda: ProbeLaunch(argv, dict(os.environ), REPO_ROOT),
                max(s.round, 1)).wait_exit()

    def close(self) -> None:
        layers.discard(self.fact)
        shutdown_all_pools()
        shutil.rmtree(self.store_dir)


def run(wl: Workload, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    """One pass of one in-process workload; returns the driver result."""
    state = Inproc(wl, seed, tmp)
    s = Sampler(exponent=wl.calib_exponent)
    try:
        if trace:
            out = layers.trace_pass(state, s, TRACE_ROUNDS)
        else:
            out = timed_rounds(s, seconds, state.round, state.setup_launch, session_rss_mb)
            out["metrics"] = s.end_to_end(wl.block_rhs)
    finally:
        state.close()
    out.update(
        s.outcome(),
        factor_mem_mb=state.factor_bytes / 2**20,
        relres_max=max(state.relres),
    )
    return out
