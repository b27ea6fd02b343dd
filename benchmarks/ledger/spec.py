"""The ledger's registry: workloads, metrics, bounds, round recipes.

``BENCHMARK.json`` is generated from this module (:func:`benchmark_json`)
and the self-check asserts the committed file equals it, so the names a
perf issue cites exist in exactly one place. Stdlib only.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``run_seconds`` of BENCHMARK.json: the length of the timed section of
#: one run. The driver makes 4 + 22 x 4 runs inside 3420 s, i.e. 37 s a
#: run with set-up, warm-up round and teardown; 20 s leaves headroom.
RUN_SECONDS = 20

#: reference duration of the calibration kernel (a 400x400 float64
#: ``A @ A``). Every timed sample is scaled by ``CALIB_REF_S / calib``
#: with ``calib`` measured right before and after it, so a timing reads
#: as seconds on a machine whose calibration kernel takes this long.
CALIB_REF_S = 2.5e-3
CALIB_SIZE = 400

#: every launched process runs BLAS single-threaded with a fixed hash seed
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: seed of the one right-hand side every residual-checked solve uses, so
#: that ``relres_max`` moves with the code and not with ``--seed``
AUDIT_RHS_SEED = 1
#: fresh-interpreter launches timed for ``setup_s``, one after each of
#: the first rounds
SETUP_LAUNCHES = 4
#: rounds of the ``--trace 1`` pass (fixed: its counts must repeat exactly)
TRACE_ROUNDS = 2
#: a run that is still going after this many seconds is failed, not truncated
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs and, for the in-process driver, its round recipe.

    The http workload's operators and request counts are
    ``httpload.FULL``; ``problem`` is its hot operator.
    """

    name: str
    why: str
    driver: str  # "inproc" or "http"
    problem: dict  # JSON problem spec (service.http.PROBLEM_TYPES)
    refine: str  # Krylov method of the refine operation
    execution: str = "sequential"
    ranks: int | None = None
    block_rhs: int = 32
    #: residual ceiling of a direct solve; above it the operation failed
    relres_ceiling: float = 1e-2
    #: timings are scaled by ``(CALIB_REF_S / calib) ** calib_exponent``.
    #: 1 where the timed work runs in the process that calibrates; where
    #: it runs in a server process the full correction over-corrects
    #: (ten-seed quartile spreads, cold request: 15 % raw, 19 % at 1,
    #: 9-10 % at 0.5-0.6)
    calib_exponent: float = 1.0
    #: operations per round (one cold strict). The
    #: batched sweep's time swings ~15 % from one call to the next at
    #: N ~ 10^4 (it streams large stacks through a shared L3), so the
    #: workload where it matters most takes two samples a round
    cold_batched: int = 1
    reloads: int = 2
    warm: int = 8
    block: int = 3
    refines: int = 2


WORKLOADS = (
    Workload(
        name="seq_laplace_9k",
        why="Table II at the largest N a 20 s run holds five rounds of: real "
        "symmetric kernel, core/linalg/kernels do the work, parallel/vmpi/service none",
        driver="inproc",
        problem={"type": "laplace_volume", "m": 96},
        refine="pcg",
        cold_batched=2, warm=8, block=3, refines=3,
    ),
    Workload(
        name="seq_helmholtz_2k",
        why="same core/linalg/kernels used differently: complex arithmetic, "
        "two-sided ID, Hankel evaluations; batching predicted ~1.0x here",
        driver="inproc",
        problem={"type": "scattering", "m": 48, "kappa": 25.0},
        refine="pgmres",
        relres_ceiling=1e-5,
        warm=20, block=6, refines=6,
    ),
    Workload(
        name="dist_laplace_1k_p4",
        why="the Sec. III sweep on 4 rank processes: parallel/vmpi/store.resident "
        "dominate, core is a minority; oversubscribed, so no scaling is derived",
        driver="inproc",
        problem={"type": "laplace_volume", "m": 32},
        refine="pcg",
        execution="process",
        ranks=4,
        block_rhs=16,
        warm=8, block=3, refines=2,
    ),
    Workload(
        name="http_mixed_ops",
        why="SolveService behind the HTTP front, cache below half the working "
        "set: service/http/store/fingerprint dominate, numerics are ms a request",
        driver="http",
        problem={"type": "laplace_volume", "m": 48},
        refine="pcg",
        calib_exponent=0.6,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "fresh interpreter to ready: import repro, build the problem, "
             "first no-op SPMD dispatch (dist) or GET /healthz 200 (http)"),
    EndToEnd("cold_strict_s", "s", "lower", 0.25,
             "first solution for a never-seen operator, factor_mode strict"),
    EndToEnd("cold_batched_s", "s", "lower", 0.25,
             "first solution for a never-seen operator, factor_mode batched"),
    EndToEnd("reload_s", "s", "lower", 0.25,
             "first solution when the factorization is only in the store's disk tier"),
    EndToEnd("solve_s", "s", "lower", 0.25,
             "warm single-rhs direct solve"),
    EndToEnd("rhs_per_s", "1/s", "higher", 0.25,
             "warm multi-rhs throughput: columns per second of a block solve"),
    EndToEnd("refine_s", "s", "lower", 0.25,
             "warm refined solve to tol=1e-12 on the cached factorization"),
    EndToEnd("relres_max", "ratio", "lower", 0.05,
             "largest true relative residual over the checked direct solves"),
    EndToEnd("factor_mem_mb", "MiB", "lower", 0.005,
             "memory_bytes of the strict factorization (the paper's storage cost)"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "sum of VmHWM over the workload's process tree before teardown"),
    EndToEnd("ok_share", "ratio", "higher", 0.001,
             "operations that returned a correct result / operations attempted"),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workload) pairs this layer metric should move
    moves: tuple[tuple[str, str], ...]
    what: str
    #: a count that must repeat exactly between two runs of one seed
    exact: bool = False


_SEQ = ("seq_laplace_9k", "seq_helmholtz_2k")
_DIST = ("dist_laplace_1k_p4",)
_HTTP = ("http_mixed_ops",)
_ALL = _SEQ + _DIST + _HTTP


def _moves(metrics: tuple[str, ...], workloads: tuple[str, ...]):
    return tuple((m, w) for m in metrics for w in workloads)


def _layers():
    s, c = "s", "count"
    lo, hi = "lower", "higher"
    cold = ("cold_strict_s", "cold_batched_s")
    return (
        Layer("kernels.block_eval_s", s, lo, _moves(("cold_strict_s",), _SEQ),
              "self time in KernelMatrix.block/proxy blocks during one strict factor"),
        Layer("kernels.block_stack_eval_s", s, lo, _moves(("cold_batched_s",), _SEQ),
              "self time in KernelMatrix.*_stack during one batched factor"),
        Layer("kernels.entries", c, lo, _moves(("cold_strict_s",), _SEQ),
              "kernel entries evaluated by one strict factor (exact)", True),
        Layer("linalg.id_s", s, lo, _moves(("cold_strict_s",), _SEQ),
              "time in interp_decomp during one strict factor"),
        Layer("linalg.id_stack_s", s, lo, _moves(("cold_batched_s",), _SEQ),
              "time in interp_decomp_stack during one batched factor"),
        Layer("linalg.id_rank_mean", c, lo, _moves(("factor_mem_mb", "solve_s"), _SEQ),
              "mean rank returned by interp_decomp during one strict factor (exact)", True),
        Layer("linalg.lu_s", s, lo, _moves(("cold_strict_s",), _SEQ),
              "time constructing PartialLU during one strict factor"),
        Layer("tree.build_s", s, lo, _moves(("setup_s", "cold_strict_s"), _SEQ),
              "QuadTree.for_leaf_size over the problem's points"),
        Layer("tree.boxes", c, lo, _moves(("cold_strict_s",), _SEQ),
              "non-empty leaf boxes of that tree (exact)", True),
        Layer("core.factor_strict_s", s, lo, _moves(("cold_strict_s",), _SEQ),
              "srs_factor, strict sweep"),
        Layer("core.factor_batched_s", s, lo, _moves(("cold_batched_s",), _SEQ),
              "srs_factor, batched sweep"),
        Layer("core.apply_s", s, lo, _moves(("solve_s", "refine_s"), _SEQ),
              "SRSFactorization.solve, one rhs"),
        Layer("core.apply_block_s", s, lo, _moves(("rhs_per_s",), _SEQ),
              "SRSFactorization.solve, one block of rhs"),
        Layer("core.rank_leaf_mean", c, lo, _moves(("factor_mem_mb",), _ALL),
              "mean skeleton rank at the leaf level (exact)", True),
        Layer("core.rank_top_mean", c, lo, _moves(("factor_mem_mb",), _ALL),
              "mean skeleton rank at the coarsest compressed level (exact)", True),
        Layer("core.rank_max", c, lo, _moves(("factor_mem_mb",), _ALL),
              "largest skeleton rank (exact)", True),
        Layer("core.batch_occupancy_mean", c, hi,
              _moves(("cold_batched_s",), _SEQ + _DIST),
              "boxes per batched compression group (exact; dist: on thread ranks)", True),
        Layer("core.unattributed_share", "ratio", lo, _moves(cold, _SEQ),
              "share of a strict factor spent outside kernels.* and linalg.*"),
        Layer("matvec.apply_s", s, lo, _moves(("refine_s",), _SEQ),
              "problem.operator()(x)"),
        Layer("iterative.refine_iters", c, lo, _moves(("refine_s",), _ALL),
              "Krylov iterations of one refine (exact)", True),
        Layer("iterative.krylov_overhead_s", s, lo, _moves(("refine_s",), _ALL),
              "refine minus iterations x (core.apply_s + matvec.apply_s)"),
        Layer("api.facade_overhead_s", s, lo,
              _moves(("solve_s",), ("seq_helmholtz_2k",) + _HTTP),
              "repro.solve(..., factorization=f) minus f.solve(b)"),
        Layer("api.fingerprint_cold_s", s, lo,
              _moves(("cold_strict_s", "reload_s"), _HTTP),
              "problem_fingerprint of a freshly built problem"),
        Layer("api.fingerprint_warm_s", s, lo, _moves(("solve_s",), _HTTP),
              "problem_fingerprint, memoized"),
        Layer("parallel.factor_s", s, lo, _moves(cold, _DIST),
              "parallel_srs_factor on 4 rank processes, strict (wall)"),
        Layer("parallel.solve_s", s, lo, _moves(("solve_s",), _DIST),
              "ParallelFactorization.solve, one rhs (wall)"),
        Layer("parallel.sim_factor_s", s, lo, _moves(cold, _DIST),
              "simulated clock of that factor (never mixed with wall)"),
        Layer("parallel.sim_comp_s", s, lo, _moves(cold, _DIST),
              "compute part of the simulated critical path"),
        Layer("parallel.sim_other_s", s, lo, _moves(cold, _DIST),
              "communication and idle part of the simulated critical path"),
        Layer("parallel.sim_solve_s", s, lo, _moves(("solve_s",), _DIST),
              "simulated clock of one distributed solve"),
        Layer("parallel.messages", c, lo, _moves(cold, _DIST),
              "messages sent during the factor (exact)", True),
        Layer("parallel.comm_bytes", c, lo, _moves(cold, _DIST),
              "payload bytes sent during the factor (exact)", True),
        Layer("parallel.wall_over_seq_ratio", "ratio", lo, _moves(cold, _DIST),
              "parallel.factor_s / core.factor_strict_s at the same N"),
        Layer("vmpi.pool_spawn_s", s, lo, _moves(("setup_s",), _DIST),
              "first no-op run_spmd at p=4 (spawns the rank pool)"),
        Layer("vmpi.dispatch_rtt_s", s, lo, _moves(("solve_s",), _DIST),
              "later no-op run_spmd at p=4 (the floor under a distributed solve)"),
        Layer("vmpi.p1_over_seq_ratio", "ratio", lo, _moves(cold, _DIST),
              "thread-backend p=1 factor / sequential factor"),
        Layer("store.spill_s", s, lo, _moves(("solve_s", "rhs_per_s"), _HTTP),
              "FactorizationStore.spill of the workload's factorization"),
        Layer("store.load_disk_s", s, lo, _moves(("reload_s",), _ALL),
              "FactorizationStore.load from the disk tier"),
        Layer("store.publish_s", s, lo, _moves(("cold_strict_s",), _HTTP),
              "fetch_or_build publishing a built factorization to shared memory"),
        Layer("store.attach_shared_s", s, lo, _moves(("reload_s",), _HTTP),
              "FactorizationStore.load attaching the shared-memory entry"),
        Layer("store.spill_mb", "MiB", lo, _moves(("reload_s",), _ALL),
              "size of the spill file"),
        Layer("service.hit_overhead_s", s, lo, _moves(("solve_s",), _HTTP),
              "in-process SolveService.solve on a cached entry minus f.solve"),
        Layer("service.burst_req_per_s", "1/s", hi, _moves(("rhs_per_s", "solve_s"), _HTTP),
              "requests per second of two closed-loop clients at once, one operator each"),
        Layer("service.batch_size_mean", c, hi, _moves(("rhs_per_s",), _HTTP),
              "requests per coalesced block solve, from GET /stats"),
        Layer("service.queue_wait_s", s, lo, _moves(("solve_s", "rhs_per_s"), _HTTP),
              "median t_queue reported by warm requests"),
        Layer("service.cache_hits", c, hi, _moves(("solve_s",), _HTTP),
              "GET /stats after the traced rounds (exact)", True),
        Layer("service.cache_misses", c, lo, _moves(("reload_s",), _HTTP),
              "GET /stats after the traced rounds (exact)", True),
        Layer("service.evictions", c, lo, _moves(("reload_s",), _HTTP),
              "GET /stats after the traced rounds (exact)", True),
        Layer("service.store_hits_disk", c, hi, _moves(("reload_s",), _HTTP),
              "GET /stats after the traced rounds (exact)", True),
        Layer("service.factorizations", c, lo, _moves(cold, _HTTP),
              "GET /stats after the traced rounds (exact)", True),
        Layer("service.rejected", c, lo, _moves(("ok_share",), _HTTP),
              "GET /stats after the traced rounds (exact)", True),
        Layer("http.healthz_rtt_s", s, lo, _moves(("solve_s",), _HTTP),
              "GET /healthz round trip"),
        Layer("http.overhead_s", s, lo, _moves(("solve_s", "rhs_per_s"), _HTTP),
              "warm POST /solve minus in-process service warm solve, same operator"),
        Layer("http.return_x_extra_s", s, lo, _moves(("solve_s",), _HTTP),
              "warm POST /solve with return_x minus without"),
        Layer("http.warm_p95_s", s, lo, _moves(("solve_s",), _HTTP),
              "95th percentile of the warm POST /solve samples"),
        Layer("http.keepalive_extra_s", s, lo, _moves(("solve_s", "rhs_per_s"), _HTTP),
              "warm POST /solve on a kept-alive connection minus on a fresh one"),
        Layer("obs.tracer_on_ratio", "ratio", lo, _moves(("solve_s",), _SEQ),
              "warm solve with the span tracer on / off, interleaved"),
        Layer("obs.profiler_97hz_ratio", "ratio", lo, _moves(("solve_s",), _SEQ),
              "warm solve with the 97 Hz sampling profiler on / off, interleaved"),
        Layer("bench.calib_gemm_ms", "ms", lo, _moves(("solve_s",), _ALL),
              "median calibration kernel: did two runs see the same machine"),
        Layer("bench.round_cv", "ratio", lo, _moves(("solve_s",), _ALL),
              "coefficient of variation of the traced rounds' durations"),
        Layer("bench.trace_overhead_ratio", "ratio", lo, _moves(("solve_s",), _ALL),
              "warm solve under the harness's spans and shims / without"),
    )


PER_LAYER = _layers()


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json`` (exactly the contract's keys)."""
    return {
        "command": ["python3", "-m", "benchmarks.ledger"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
