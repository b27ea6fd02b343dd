"""Per-layer probes of the ``--trace 1`` pass.

Every probe opens a span (name, start, end, parent, workload, round)
around a call into a layer's public function; the numbers the pass
reports are queries over those spans and the exact counts recorded on
them. Layers on a workload's path are probed on the workload's own
operator in every round; layers off its path (``parallel``/``vmpi`` on a
sequential workload, ``service``/``http`` where there is no server) are
probed once at a reduced size, so that every workload reports every
layer and a change that should not matter somewhere shows it.

"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import tempfile
import time

import repro
from repro.api.fingerprint import problem_fingerprint
from repro.core.options import SRSOptions
from repro.obs import REGISTRY, profile, trace
from repro.service import SolveService
from repro.service.http import build_problem
from repro.store import FactorizationStore
from repro.tree import QuadTree
from repro.vmpi import run_spmd, shutdown_all_pools

from . import httpload
from .measure import Sampler, SpanRecorder, layer_shims
from .probe import noop
from .stats import self_by_name, subtree

#: seconds the tracer/profiler on-off comparison runs for
OBS_SECONDS = 2.0
#: rank count of the distributed probes
RANKS = 4
#: grid side of the reduced-size operator that off-path layers are probed on
SMALL_M = 32


def discard(fact) -> None:
    """Release what a factorization we are done with holds elsewhere.

    A distributed factorization keeps shards resident in the rank
    workers; dropping them is what the service cache does on eviction,
    and without it eight cold factors would push the warm entry out of
    the workers' resident cap.
    """
    handle = getattr(fact, "resident", None)
    if handle is not None:
        handle.drop()


def _occupancy_totals() -> tuple[float, int]:
    snap = REGISTRY.histogram("repro_factor_batch_occupancy").snapshot()
    return snap["sum"], snap["count"]


@contextlib.contextmanager
def _occupancy(span: dict):
    """Stamp ``span`` with the batch groups formed while the block ran."""
    sum0, count0 = _occupancy_totals()
    yield
    sum1, count1 = _occupancy_totals()
    span["batch_boxes"], span["batch_groups"] = sum1 - sum0, count1 - count0


def _rank_counts(span: dict, stats) -> None:
    # the root levels keep no skeleton (rank 0): "top" is the coarsest
    # level that still compresses
    levels = [level for level in stats.levels() if stats.max_rank(level) > 0]
    span["rank_leaf_mean"] = stats.average_rank(levels[-1])
    span["rank_top_mean"] = stats.average_rank(levels[0])
    span["rank_max"] = max(stats.max_rank(level) for level in levels)


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def probe_core(rec: SpanRecorder, s: Sampler, problem, spec: dict, refine: str,
               rhs, ceiling: float):
    """tree, the two sequential sweeps, applies, matvec, facade, refine.

    Returns the strict factorization (the store probe's payload).
    """
    kernel = problem.kernel
    with rec.span("tree.build") as span:
        tree = QuadTree.for_leaf_size(kernel.points, SRSOptions().leaf_size)
        span["boxes"] = len(tree.nonempty_leaves())
    tree = problem.factor_tree or tree  # the tree srs_factor would build itself
    with layer_shims(rec):
        with rec.span("core.factor_strict") as span:
            fact = repro.srs_factor(kernel, tree, SRSOptions(factor_mode="strict"))
            _rank_counts(span, fact.stats)
        with rec.span("core.factor_batched") as span, _occupancy(span):
            repro.srs_factor(kernel, tree, SRSOptions(factor_mode="batched"))

    b = rhs()
    config = repro.SolveConfig(factor_mode="strict")
    for _ in range(10):  # interleaved: their difference is the facade's cost
        with rec.span("core.apply"):
            x = fact.solve(b)
        with rec.span("api.solve_cached"):
            repro.solve(problem, b, config, factorization=fact)
    relres = problem.relres(x, b)
    s.check(relres <= ceiling, f"core.apply: relres {relres:.3e}")
    block = rhs(16)
    for _ in range(3):
        with rec.span("core.apply_block"):
            fact.solve(block)
    operator = problem.operator()
    for _ in range(5):
        with rec.span("matvec.apply"):
            operator(x)

    # the same solve with the shims in place and under a span of ours
    # against a bare one: what tracing costs the number it measures
    for _ in range(10):
        with layer_shims(rec), rec.span("bench.solve_traced"):
            fact.solve(b)
        s.timed("bench.solve_bare", lambda: fact.solve(b))
    fresh = build_problem(spec)
    with rec.span("api.fingerprint_cold"):
        problem_fingerprint(fresh)
    for _ in range(5):
        with rec.span("api.fingerprint_warm"):
            problem_fingerprint(fresh)

    refine_config = repro.SolveConfig(method=refine, factor_mode="strict", tol=1e-12)
    with rec.span("iterative.refine") as span:
        report = repro.solve(problem, b, refine_config, factorization=fact)
        span["iterations"] = report.iterations
    s.check(report.converged, "iterative.refine did not converge")
    return fact, relres


def probe_store(rec: SpanRecorder, s: Sampler, fact, tmp: str) -> None:
    """spill / load from disk / publish to shared memory / attach."""
    key = ("ledger-probe", rec.workload, rec.round)
    root = tempfile.mkdtemp(prefix="ledger-store-", dir=tmp)
    disk = FactorizationStore(os.path.join(root, "disk"), shared=False, spill=True)
    shared = FactorizationStore(os.path.join(root, "shared"), shared=True, spill=False)
    try:
        with rec.span("store.spill") as span:
            spilled = disk.spill(key, fact)
        files = [os.path.join(disk.root, name) for name in os.listdir(disk.root)]
        span["mb"] = sum(os.path.getsize(path) for path in files) / 2**20
        with rec.span("store.load_disk"):
            loaded = disk.load(key)
        s.check(spilled and loaded is not None and loaded[1] == "disk",
                "store: spill/load round trip")
        with rec.span("store.publish"):
            shared.fetch_or_build(key, lambda: fact)
        with rec.span("store.attach_shared"):
            attached = shared.load(key)
        s.check(attached is not None and attached[1] == "shared", "store: attach")
    finally:
        shared.close()
        disk.close()
        shutil.rmtree(root)


def probe_parallel(rec: SpanRecorder, s: Sampler, problem, rhs, ceiling: float) -> None:
    """Pool spawn, dispatch, the distributed sweep and solve, thread p=1.

    Leaves no pool behind, so the next round times the spawn again.
    """
    kernel, domain = problem.kernel, problem.parallel_domain
    strict = SRSOptions(factor_mode="strict")
    with rec.span("vmpi.pool_spawn"):
        run_spmd(RANKS, noop, backend="process")
    for _ in range(5):
        with rec.span("vmpi.dispatch"):
            run_spmd(RANKS, noop, backend="process")
    with rec.span("parallel.factor") as span:
        fact = repro.parallel_srs_factor(
            kernel, RANKS, strict, domain=domain, backend="process"
        )
    span.update(
        sim_factor=fact.t_fact, sim_comp=fact.t_fact_comp, sim_other=fact.t_fact_other,
        messages=fact.factor_run.total_messages, comm_bytes=fact.factor_run.total_bytes,
    )
    _rank_counts(span, fact.stats)
    b = rhs()
    for _ in range(5):
        with rec.span("parallel.solve") as span:
            x = fact.solve(b)
        span["sim"] = fact.t_solve
    relres = problem.relres(x, b)
    s.check(relres <= ceiling, f"parallel.solve: relres {relres:.3e}")
    discard(fact)
    shutdown_all_pools()
    with rec.span("vmpi.p1_factor"):
        repro.parallel_srs_factor(kernel, 1, strict, domain=domain, backend="thread")
    with rec.span("core.factor_strict_base"):
        repro.srs_factor(kernel, problem.factor_tree, strict)


def probe_thread_occupancy(rec: SpanRecorder, problem) -> None:
    """Batched sweep on thread ranks: their batch groups land in our registry."""
    with rec.span("parallel.factor_batched_thread") as span, _occupancy(span):
        repro.parallel_srs_factor(
            problem.kernel, RANKS, SRSOptions(factor_mode="batched"),
            domain=problem.parallel_domain, backend="thread",
        )


def probe_service(rec: SpanRecorder, s: Sampler, spec: dict, rhs_seed: int) -> None:
    """In-process ``SolveService`` on a cached entry against ``f.solve``."""
    problem = build_problem(spec)
    b = problem.random_rhs(rhs_seed)
    with SolveService() as service:
        fact = service.solve(problem, b).factorization
        for _ in range(10):
            with rec.span("service.inproc_solve"):
                report = service.solve(problem, b)
            with rec.span("service.fact_solve"):
                fact.solve(b)
        s.check(bool(report.cache_hit), "service: warm solve missed the cache")


def probe_obs(rec: SpanRecorder, problem, fact, b) -> None:
    """Warm facade solves with the tracer / the 97 Hz profiler on and off.

    Modes alternate in blocks of ten solves (the profiler needs to run
    across several solves to take any samples), so all three see the same
    machine states; :data:`OBS_SECONDS` in total whatever the solve costs.
    """
    config = repro.SolveConfig(factor_mode="strict")

    def solve():
        repro.solve(problem, b, config, factorization=fact)

    modes = ["off", "tracer", "profiler"]
    t_end = time.perf_counter() + OBS_SECONDS
    blocks = 0
    while blocks < 3 or time.perf_counter() < t_end:
        blocks += 1
        modes.append(modes.pop(0))  # no mode always follows the same one
        for mode in modes:
            if mode == "tracer":
                trace.enable()
            elif mode == "profiler":
                profile.start(97.0)
            try:
                for _ in range(10):
                    with rec.span(f"obs.solve_{mode}"):
                        solve()
            finally:
                trace.disable()
                trace.clear()
                profile.stop()
                profile.clear()


# ----------------------------------------------------------------------
# span queries
# ----------------------------------------------------------------------
def _last(rec: SpanRecorder, name: str) -> dict:
    return rec.named(name)[-1]


def _median_attr(rec: SpanRecorder, name: str, attr: str) -> float:
    return statistics.median(span[attr] for span in rec.named(name))


def derive(rec: SpanRecorder, s: Sampler, http: dict) -> dict:
    """Every per-layer metric from the recorded spans and counts.

    ``http`` is :func:`httpload.layer_metrics` of the server that was
    probed; its ``warm_median_s`` is the base of ``http.overhead_s``.
    """
    spans = rec.spans
    med = rec.median
    strict = rec.named("core.factor_strict")
    batched = rec.named("core.factor_batched")
    under = {root["id"]: subtree(spans, root["id"]) for root in strict + batched}
    own = {root_id: self_by_name(below) for root_id, below in under.items()}

    def layer_time(roots: list[dict], layer: str) -> float:
        """Median over ``roots`` of the self time ``layer`` spent under each."""
        return statistics.median(own[root["id"]].get(layer, 0.0) for root in roots)

    under_strict = [sp for root in strict for sp in under[root["id"]]]
    id_ranks = [sp["rank"] for sp in under_strict if sp["name"] == "linalg.id"]
    entries = sum(sp["entries"] for sp in under_strict if sp["name"] == "kernels.block")
    thread = rec.named("parallel.factor_batched_thread", timed_rounds_only=False)
    occupancy = thread[-1] if thread else batched[-1]
    pfact = _last(rec, "parallel.factor")
    apply_s, matvec_s = med("core.apply"), med("matvec.apply")
    refine = _last(rec, "iterative.refine")
    round_s = rec.durations("round.on_path")
    base_s = med("core.factor_strict_base")
    http = dict(http)
    http_warm_s = http.pop("warm_median_s")

    return {
        "kernels.block_eval_s": layer_time(strict, "kernels.block"),
        "kernels.block_stack_eval_s": layer_time(batched, "kernels.block_stack"),
        "kernels.entries": entries / len(strict),
        "linalg.id_s": layer_time(strict, "linalg.id"),
        "linalg.id_stack_s": layer_time(batched, "linalg.id_stack"),
        "linalg.id_rank_mean": statistics.fmean(id_ranks),
        "linalg.lu_s": layer_time(strict, "linalg.lu"),
        "tree.build_s": med("tree.build"),
        "tree.boxes": _last(rec, "tree.build")["boxes"],
        "core.factor_strict_s": med("core.factor_strict"),
        "core.factor_batched_s": med("core.factor_batched"),
        "core.apply_s": apply_s,
        "core.apply_block_s": med("core.apply_block"),
        "core.rank_leaf_mean": strict[-1]["rank_leaf_mean"],
        "core.rank_top_mean": strict[-1]["rank_top_mean"],
        "core.rank_max": strict[-1]["rank_max"],
        "core.batch_occupancy_mean": occupancy["batch_boxes"] / occupancy["batch_groups"],
        "core.unattributed_share": statistics.median(
            own[root["id"]]["core.factor_strict"] / (root["end"] - root["start"])
            for root in strict
        ),
        "matvec.apply_s": matvec_s,
        "iterative.refine_iters": refine["iterations"],
        "iterative.krylov_overhead_s": med("iterative.refine")
        - refine["iterations"] * (apply_s + matvec_s),
        "api.facade_overhead_s": med("api.solve_cached") - apply_s,
        "api.fingerprint_cold_s": med("api.fingerprint_cold"),
        "api.fingerprint_warm_s": med("api.fingerprint_warm"),
        "parallel.factor_s": med("parallel.factor"),
        "parallel.solve_s": med("parallel.solve"),
        "parallel.sim_factor_s": _median_attr(rec, "parallel.factor", "sim_factor"),
        "parallel.sim_comp_s": _median_attr(rec, "parallel.factor", "sim_comp"),
        "parallel.sim_other_s": _median_attr(rec, "parallel.factor", "sim_other"),
        "parallel.sim_solve_s": _median_attr(rec, "parallel.solve", "sim"),
        "parallel.messages": pfact["messages"],
        "parallel.comm_bytes": pfact["comm_bytes"],
        "parallel.wall_over_seq_ratio": med("parallel.factor") / base_s,
        "vmpi.pool_spawn_s": med("vmpi.pool_spawn"),
        "vmpi.dispatch_rtt_s": med("vmpi.dispatch"),
        "vmpi.p1_over_seq_ratio": med("vmpi.p1_factor") / base_s,
        "store.spill_s": med("store.spill"),
        "store.load_disk_s": med("store.load_disk"),
        "store.publish_s": med("store.publish"),
        "store.attach_shared_s": med("store.attach_shared"),
        "store.spill_mb": _last(rec, "store.spill")["mb"],
        "service.hit_overhead_s": med("service.inproc_solve") - med("service.fact_solve"),
        "http.overhead_s": http_warm_s - med("service.inproc_solve"),
        "obs.tracer_on_ratio": med("obs.solve_tracer") / med("obs.solve_off"),
        "obs.profiler_97hz_ratio": med("obs.solve_profiler") / med("obs.solve_off"),
        "bench.calib_gemm_ms": 1e3 * statistics.median(s.calib.readings),
        "bench.round_cv": statistics.pstdev(round_s) / statistics.fmean(round_s),
        "bench.trace_overhead_ratio": med("bench.solve_traced")
        / statistics.median(s.values("bench.solve_bare", calibrated=False)),
        **http,
    }


# ----------------------------------------------------------------------
# the passes
# ----------------------------------------------------------------------
def _small(spec: dict) -> dict:
    return {**spec, "m": SMALL_M}


def _probe_mini_server(s: Sampler, seed: int, tmp: str) -> dict:
    """service/http layer numbers from a reduced-size server and traffic."""
    http_run = httpload.HttpRun(httpload.MINI, seed, tmp)
    rnd = s.round
    try:
        return httpload.traced_rounds(http_run, s, 1)  # its own round 0 and 1
    finally:
        s.round = rnd
        http_run.close()


def trace_pass(state, s: Sampler, rounds: int) -> dict:
    """The traced pass of an in-process workload (``state``: inproc.Inproc).

    No warm-up round: a probe round costs seconds, first-call effects
    cost milliseconds, and the budget is better spent on a counted round.
    """
    wl = state.wl
    rec = s.rec = SpanRecorder(wl.name)
    distributed = wl.execution != "sequential"
    http_layers: dict = {}
    for rnd in range(1, rounds + 1):
        s.round = rec.round = rnd
        with rec.span("round"):
            with rec.span("round.on_path"):
                fact, relres = probe_core(
                    rec, s, state.problem, wl.problem, wl.refine, state.rhs,
                    wl.relres_ceiling,
                )
                probe_store(rec, s, fact, state.tmp)
                if distributed:
                    probe_parallel(rec, s, state.problem, state.rhs, wl.relres_ceiling)
            state.relres.append(relres)
            state.factor_bytes = fact.memory_bytes()
            if rnd == 1:  # off-path layers: once, at reduced size
                if distributed:
                    probe_thread_occupancy(rec, state.problem)
                else:
                    small = build_problem(_small(wl.problem))
                    probe_parallel(rec, s, small, lambda: small.random_rhs(state.seed),
                                   wl.relres_ceiling)
                probe_service(rec, s, httpload.MINI.hot, state.seed)
                probe_obs(rec, state.problem, fact, state.rhs())
                http_layers = _probe_mini_server(s, state.seed, state.tmp)
    return {
        "rounds": rounds,
        "layers": derive(rec, s, http_layers),
        "spans": rec.spans,
    }


def trace_pass_http(http_run, s: Sampler, wl, tmp: str, rounds: int) -> dict:
    """The traced pass of ``http_mixed_ops``: real traffic plus probes.

    Round 0 seeds the operators and warms the server; the probes of the
    other layers run in the counted rounds only.
    """
    rec = s.rec = SpanRecorder(wl.name)
    hot = http_run.problem(wl.problem)
    seed = http_run.seed

    def rhs(nrhs: int = 1):
        return hot.random_rhs(http_run.rhs_seed(), nrhs)

    for rnd in range(rounds + 1):
        s.round = rec.round = rnd
        with rec.span("round"), rec.span("round.on_path"):
            http_run.round(s)
            http_run.probes(s)
            if rnd == 0:
                continue
            fact, _ = probe_core(rec, s, hot, wl.problem, wl.refine, rhs,
                                 wl.relres_ceiling)
            probe_store(rec, s, fact, tmp)
            probe_service(rec, s, wl.problem, seed)
        if rnd == 1:
            small = build_problem(_small(wl.problem))
            probe_parallel(rec, s, small, lambda: small.random_rhs(seed),
                           wl.relres_ceiling)
            probe_obs(rec, hot, fact, rhs())
    http_layers = httpload.layer_metrics(http_run, s, http_run.stats())
    return {
        "rounds": rounds,
        "layers": derive(rec, s, http_layers),
        "spans": rec.spans,
    }
