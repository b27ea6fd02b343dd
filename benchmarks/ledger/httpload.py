"""Driver of ``http_mixed_ops``: a server subprocess and a closed loop.

The load generator (this process) starts ``server_main`` in its own
session-mate subprocess with a cache budget below half the operators'
working set and a fresh store dir, then runs identical rounds: cold
strict and cold batched requests to never-seen operators of fixed cost,
requests to operators known to be evicted, warm single-rhs and multi-rhs
requests on the hot operator, refines, and a seeded mixed sequence over
all operators (the deterministic cache/eviction/store trace). One client,
which waits for each reply before sending again; the traced pass adds
two-client bursts.

The same :class:`HttpRun` with :data:`MINI` serves as the service/http
layer probe of the workloads that have no server on their path.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from .measure import Sampler, timed_rounds
from .spec import AUDIT_RHS_SEED, TRACE_ROUNDS, WORKLOAD_BY_NAME, Workload
from .stats import percentile
from .supervisor import REPO_ROOT, session_rss_mb


#: columns of the multi-rhs request behind the http ``rhs_per_s``
BLOCK_RHS = 16


def _lap(m: int) -> dict:
    return {"type": "laplace_volume", "m": m}


def _scat(m: int, kappa: float) -> dict:
    return {"type": "scattering", "m": m, "kappa": kappa}


@dataclass(frozen=True)
class Plan:
    """Operators and per-round request counts of one server's traffic."""

    hot: dict
    #: the second burst client's operator: the hot one's cost, its own
    #: factorization (see :meth:`HttpRun.burst` for why)
    twin: dict
    #: the other operators of the Zipf sequence, most popular first
    others: tuple[dict, ...]
    #: each requested once a round, right after the cold ones: certainly evicted
    reload_ops: tuple[dict, ...]
    #: grid side of the never-seen cold operators (scattering, kappa varies)
    cold_m: int
    #: cold requests per sweep mode per round
    colds: int
    cache_bytes: int
    warm: int
    zipf: int
    #: multi-rhs requests per round
    blocks: int
    #: requests each of the two burst clients sends (traced pass only)
    burst_len: int
    refines: int


#: The eight Zipf operators' factorizations add up to ~62 MiB (1.7 to
#: 18 MiB each, N = 512..4096, all four problem types); the budget is
#: below half of that. It also guarantees the reloads: between two
#: requests for a reload operator (two of 5.5 MiB, so that one median
#: describes both) the hot operator and its twin, four
#: cold ones and the other reload operator (2 x 7.8 + 4 x 2.8 + 5.5 MiB)
#: are touched, which with it exceed the budget, so LRU has dropped it to
#: the disk tier.
FULL = Plan(
    hot=WORKLOAD_BY_NAME["http_mixed_ops"].problem,
    twin=_lap(47),
    others=(
        _lap(64),
        _scat(32, 10.0),
        {"type": "interior_dirichlet", "n": 2048, "curve": {"type": "star"}},
        _lap(60),
        {"type": "sound_soft", "n": 512, "kappa": 5.0, "curve": {"type": "kite"}},
        _scat(24, 12.0),
        {"type": "interior_dirichlet", "n": 1024, "curve": {"type": "ellipse"}},
    ),
    reload_ops=(_lap(40), _lap(41)),
    cold_m=24,
    colds=2,
    cache_bytes=28 * 2**20,
    warm=30, zipf=12, blocks=10, burst_len=12, refines=5,
)

MINI = Plan(
    hot=_lap(32),
    twin=_lap(31),
    others=(_scat(16, 5.0), {"type": "interior_dirichlet", "n": 256}),
    reload_ops=(_lap(24),),
    cold_m=16,
    colds=1,
    cache_bytes=8 * 2**20,
    warm=10, zipf=8, blocks=5, burst_len=6, refines=1,
)


def zipf_counts(n_ops: int, total: int) -> list[int]:
    """``total`` requests split over ``n_ops`` ranks in proportion to
    ``1 / rank**1.1`` (largest remainders), every operator at least once."""
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(n_ops)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [max(1, int(share)) for share in shares]
    by_remainder = sorted(range(n_ops), key=lambda k: shares[k] - counts[k], reverse=True)
    for k in by_remainder[: max(0, total - sum(counts))]:
        counts[k] += 1
    return counts


def refine_method(spec: dict) -> str:
    return "pcg" if spec["type"] == "laplace_volume" else "pgmres"


class Client:
    """A closed-loop client; a request returns ``(status, json)``.

    Like ``urllib.request``, each request opens its own connection. On a
    kept-alive connection every reply waits ~40 ms for the client's
    delayed ACK, because the handler writes headers and body in two
    segments with Nagle on; ``keep_alive=True`` is how the traced pass
    records that as ``http.keepalive_extra_s`` instead of letting a
    kernel timer swamp every other http number.
    """

    def __init__(self, port: int, *, keep_alive: bool = False) -> None:
        self.port = port
        self.keep_alive = keep_alive
        self._conn: http.client.HTTPConnection | None = None

    def _request(self, method: str, path: str, body: str | None = None):
        conn = self._conn or http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            if self.keep_alive:
                self._conn = conn
            else:
                conn.close()

    def get(self, path: str):
        return self._request("GET", path)

    def solve(self, body: dict):
        return self._request("POST", "/solve", json.dumps(body))

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Server:
    """``server_main`` as a subprocess; constructed means healthz said 200."""

    def __init__(self, store_dir: str, cache_bytes: int) -> None:
        env = dict(
            os.environ,
            REPRO_STORE_DIR=store_dir,
            REPRO_SERVICE_CACHE_BYTES=str(cache_bytes),
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger.server_main"],
            cwd=REPO_ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.split()[1])
        self.client = Client(self.port)
        status, _ = self.client.get("/healthz")
        if status != 200:
            self.stop()
            raise RuntimeError(f"GET /healthz answered {status}")

    def stop(self) -> None:
        """End-of-file on its stdin is the server's signal to shut down."""
        if getattr(self, "client", None) is not None:
            self.client.close()
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class HttpRun:
    """One server plus the state the rounds keep between requests."""

    def __init__(self, plan: Plan, seed: int, tmp: str) -> None:
        self.plan = plan
        self.seed = seed
        self.store_dir = tempfile.mkdtemp(prefix="ledger-store-", dir=tmp)
        self.server = Server(self.store_dir, plan.cache_bytes)
        self.client = self.server.client
        self._problems: dict[str, object] = {}
        self._rhs_counter = 0
        self._cold_counter = 0
        self.relres: list[float] = []
        self.factor_bytes = 0
        self.queue_waits: list[float] = []

    # ------------------------------------------------------------------
    def problem(self, spec: dict):
        """The load generator's own copy of an operator (residual checks)."""
        from repro.service.http import build_problem

        key = json.dumps(spec, sort_keys=True)
        if key not in self._problems:
            self._problems[key] = build_problem(spec)
        return self._problems[key]

    def rhs_seed(self) -> int:
        self._rhs_counter += 1
        return self.seed * 100_003 + self._rhs_counter

    def body(self, spec: dict, **fields) -> dict:
        """A request body; one that returns ``x`` is residual-checked and
        carries the audit right-hand side, every other one the next seeded."""
        rhs_seed = AUDIT_RHS_SEED if fields.get("return_x") else self.rhs_seed()
        return {"problem": spec, "rhs": {"seed": rhs_seed}, "relres": False, **fields}

    def check_x(self, s: Sampler, what: str, body: dict, status: int, payload: dict,
                ceiling: float) -> None:
        """Residual of a returned solution, recomputed on this side."""
        if status != 200:
            s.check(False, f"{what}: HTTP {status} {payload.get('error')}")
            return
        problem = self.problem(body["problem"])
        b = problem.random_rhs(body["rhs"]["seed"])
        x = payload["x"]
        if isinstance(x, dict):
            x = np.asarray(x["re"]) + 1j * np.asarray(x["im"])
        relres = problem.relres(np.asarray(x), b)
        self.relres.append(relres)
        s.check(relres <= ceiling, f"{what}: relres {relres:.3e}")

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def cold(self, s: Sampler, mode: str) -> None:
        """First request for an operator nobody has seen: factor + solve."""
        self._cold_counter += 1
        spec = _scat(self.plan.cold_m, 12.0 + 1e-3 * self._cold_counter)
        body = self.body(spec, srs={"factor_mode": mode}, return_x=True)
        status, payload = s.timed(f"cold_{mode}", lambda: self.client.solve(body))
        self.check_x(s, f"cold {mode}", body, status, payload, 1e-5)
        if status == 200:
            s.check(not payload["report"]["cache_hit"], f"cold {mode} was a cache hit")
            if mode == "strict":
                self.factor_bytes = payload["report"]["memory_bytes"]

    def warm(self, s: Sampler, kind: str = "solve", **fields) -> None:
        body = self.body(self.plan.hot, **fields)
        status, payload = s.timed(kind, lambda: self.client.solve(body))
        if "return_x" in fields:
            self.check_x(s, "warm solve", body, status, payload, 1e-2)
        ok = status == 200 and payload["report"]["cache_hit"]
        s.check(ok, f"warm request: HTTP {status}, {payload.get('error', 'cache miss')}")
        if ok:
            self.queue_waits.append(payload["report"]["t_queue"])

    def zipf(self, s: Sampler) -> None:
        """The mixed sequence: one client, so the cache trace is exact.

        Every round sends the same Zipf-shaped multiset of requests — so
        rounds cost the same, touch every operator and reach the same
        memory peaks — two of them refines (most and third-most popular
        operator), two returning ``x`` (second-most and least popular);
        the seed decides their order.
        """
        plan = self.plan
        ops = (plan.hot,) + plan.others
        requests = []
        for rank, (spec, count) in enumerate(zip(ops, zipf_counts(len(ops), plan.zipf))):
            first = {0: "refine", 2: "refine", 1: "return_x", len(ops) - 1: "return_x"}
            requests += [(spec, first.get(rank, "direct"))] + [(spec, "direct")] * (count - 1)
        random.Random(self.seed * 7919 + s.round).shuffle(requests)
        for spec, kind in requests:
            if kind == "refine":
                body = self.body(spec, method=refine_method(spec), tol=1e-10)
            else:
                body = self.body(spec, return_x=kind == "return_x")
            status, payload = s.timed("zipf", lambda: self.client.solve(body))
            ok = status == 200 and payload["report"]["converged"]
            s.check(ok, f"zipf request on {spec}: HTTP {status} {payload.get('error')}")

    def block(self, s: Sampler) -> None:
        """One request carrying a block of right-hand sides (BLAS-3 apply)."""
        body = self.body(self.plan.hot)
        body["rhs"]["nrhs"] = BLOCK_RHS
        status, payload = s.timed("block", lambda: self.client.solve(body))
        ok = status == 200 and payload["report"]["nrhs"] == BLOCK_RHS
        s.check(ok, f"block request: HTTP {status} {payload.get('error', payload)}")

    def burst(self, s: Sampler) -> None:
        """Two closed-loop clients at once, one operator each.

        Not both on the hot operator: two direct solves running at once on
        one cached factorization race inside ``scipy.linalg.lu_solve``
        (it converts the shared pivot array to 1-based in place for the
        LAPACK call), seen here as ``HTTP 500 IndexError: index 20 is out
        of bounds`` and, once, a glibc malloc assertion that killed the
        server. That is a correctness bug for its own issue; a benchmark
        needs operations that do not fail.
        """
        bodies = [[self.body(spec) for _ in range(self.plan.burst_len)]
                  for spec in (self.plan.hot, self.plan.twin)]
        replies: list[tuple[int, dict]] = []
        barrier = threading.Barrier(3)

        def client_loop(mine: list[dict]) -> None:
            client = Client(self.server.port)
            try:
                barrier.wait()
                for body in mine:
                    replies.append(client.solve(body))
            finally:
                client.close()

        threads = [threading.Thread(target=client_loop, args=(b,)) for b in bodies]
        for thread in threads:
            thread.start()

        def both_done():
            barrier.wait()
            for thread in threads:
                thread.join()

        s.timed("burst", both_done)
        for status, payload in replies:
            s.check(status == 200, f"burst request: HTTP {status} {payload.get('error')}")
        for _ in range(2 * self.plan.burst_len - len(replies)):
            s.check(False, "burst request raised")

    def refine(self, s: Sampler) -> None:
        body = self.body(self.plan.hot, method=refine_method(self.plan.hot),
                         tol=1e-12, relres=True)
        status, payload = s.timed("refine", lambda: self.client.solve(body))
        ok = status == 200 and payload["report"]["converged"] \
            and payload["report"]["relres"] <= 1e-10
        s.check(ok, f"refine: HTTP {status} {payload.get('report', payload)}")

    def reload(self, s: Sampler, spec: dict) -> None:
        """An evicted operator: served from the store's disk tier."""
        before = self.client.get("/stats")[1]
        body = self.body(spec, return_x=True)
        status, payload = s.timed("reload", lambda: self.client.solve(body))
        after = self.client.get("/stats")[1]
        self.check_x(s, "reload", body, status, payload, 1e-2)
        moved = {
            key: after[key] - before[key] for key in ("store_hits_disk", "factorizations")
        }
        s.check(moved == {"store_hits_disk": 1, "factorizations": 0},
                f"reload not served from disk: {moved}")

    def seed_operators(self, s: Sampler) -> None:
        """Round 0 only: every operator is factored (and spilled) once.

        One at a time (two factorizations side by side would put a
        timing-dependent bump into the server's peak RSS), the reload
        operators first, so that they are the first LRU drops.
        """
        plan = self.plan
        for spec in plan.reload_ops + (plan.hot, plan.twin) + plan.others:
            status, payload = self.client.solve(self.body(spec))
            s.check(status == 200, f"seeding {spec}: HTTP {status} {payload.get('error')}")

    def round(self, s: Sampler) -> None:
        plan = self.plan
        if s.round == 0:
            self.seed_operators(s)
        for _ in range(plan.colds):
            self.cold(s, "strict")
            self.cold(s, "batched")
        for spec in plan.reload_ops:
            self.reload(s, spec)
        # the Zipf sequence of the round before may have pushed the warm
        # operators out; these requests (counted, not timed) bring them back
        for spec in (plan.hot, plan.twin):
            status, payload = self.client.solve(self.body(spec))
            s.check(status == 200, f"re-warm: HTTP {status} {payload.get('error')}")
        # round 0 only has to leave the server warm and the cache in its
        # steady state: a fifth of the warm traffic does that
        share = 5 if s.round == 0 else 1
        for _ in range(plan.warm // share):
            self.warm(s)
        self.warm(s, "solve_x", return_x=True)
        for _ in range(plan.blocks // share):
            self.block(s)
        for _ in range(plan.refines // share):
            self.refine(s)
        self.zipf(s)

    def probes(self, s: Sampler) -> None:
        """The traced pass's extras: two-client bursts, healthz and
        kept-alive round trips."""
        for _ in range(3):
            self.burst(s)
        kept = Client(self.server.port, keep_alive=True)
        try:
            for _ in range(10):
                status, _ = s.timed("healthz", lambda: self.client.get("/healthz"))
                s.check(status == 200, f"GET /healthz answered {status}")
                status, _ = s.timed("keepalive", lambda: kept.solve(self.body(self.plan.hot)))
                s.check(status == 200, f"kept-alive request: HTTP {status}")
        finally:
            kept.close()

    def stats(self) -> dict:
        return self.client.get("/stats")[1]

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.store_dir)


def time_server_launch(s: Sampler, tmp: str, cache_bytes: int) -> None:
    """One more fresh server, timed to its first healthz and stopped."""
    store_dir = tempfile.mkdtemp(prefix="ledger-store-", dir=tmp)
    # round 0's launch counts too: a fresh interpreter has no warm-up
    s.timed("setup", lambda: Server(store_dir, cache_bytes), max(s.round, 1)).stop()
    shutil.rmtree(store_dir)


def layer_metrics(run: HttpRun, s: Sampler, stats: dict) -> dict:
    """The ``service.*``/``http.*`` numbers one traced server run yields."""
    def raw(kind: str) -> list[float]:
        return s.values(kind, calibrated=False)

    warm = raw("solve")
    warm_median = statistics.median(warm)
    out = {
        "warm_median_s": warm_median,
        "http.healthz_rtt_s": statistics.median(raw("healthz")),
        "http.keepalive_extra_s": statistics.median(raw("keepalive")) - warm_median,
        "http.return_x_extra_s": statistics.median(raw("solve_x")) - warm_median,
        "http.warm_p95_s": percentile(warm, 95),
        "service.burst_req_per_s": statistics.median(
            2 * run.plan.burst_len / seconds for seconds in raw("burst")
        ),
        "service.batch_size_mean": stats["mean_batch_occupancy"],
        "service.queue_wait_s": statistics.median(run.queue_waits),
    }
    for counter in ("cache_hits", "cache_misses", "evictions", "store_hits_disk",
                    "factorizations", "rejected"):
        out[f"service.{counter}"] = stats[counter]
    return out


def traced_rounds(run: HttpRun, s: Sampler, rounds: int) -> dict:
    """Round 0 plus ``rounds`` rounds with the http probes; layer numbers."""
    for rnd in range(rounds + 1):
        s.round = rnd
        run.round(s)
        run.probes(s)
    return layer_metrics(run, s, run.stats())


def run(wl: Workload, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    """One pass of ``http_mixed_ops``; returns the driver result."""
    from . import layers  # not at module level: layers imports this module

    s = Sampler(exponent=wl.calib_exponent)
    http_run = HttpRun(FULL, seed, tmp)
    try:
        if trace:
            out = layers.trace_pass_http(http_run, s, wl, tmp, TRACE_ROUNDS)
        else:
            out = timed_rounds(
                s, seconds, http_run.round,
                lambda s: time_server_launch(s, tmp, FULL.cache_bytes),
                lambda: session_rss_mb(exclude=(os.getpid(),)),
            )
            out["metrics"] = s.end_to_end(BLOCK_RHS)
    finally:
        http_run.close()
    out.update(
        s.outcome(),
        factor_mem_mb=http_run.factor_bytes / 2**20,
        relres_max=max(http_run.relres),
    )
    return out
