"""Thread vs process execution backends: wall-clock scaling + parity.

The thread backend simulates distributed time faithfully but its rank
*compute* is GIL-serialized; the process backend runs ranks as OS
processes — a persistent :class:`~repro.vmpi.pool.RankPool`, spawned
once, then serving ``factor`` and every ``solve`` from worker-resident
shards — with shared-memory ndarray transport, so factorization
wall-clock scales with cores. This bench runs the Table II Laplace
volume workload and the PR-1 BIE star workload at ``p = 4`` under both
backends, checks they are observationally identical (bitwise solutions,
equal message/byte counters), and writes machine-readable results to
``BENCH_backend_scaling.json`` at the repository root so the perf
trajectory accumulates across commits/CI artifacts.
"""

import json
import os
import platform
import time

import numpy as np
import pytest

from common import SCALE, save_table
from repro.apps import LaplaceVolumeProblem
from repro.bie import InteriorDirichletProblem, StarCurve, harmonic_exponential
from repro.core import SRSOptions
from repro.geometry.domain import Square
from repro.obs import REGISTRY
from repro.parallel import parallel_srs_factor
from repro.reporting import Table, format_sci, format_seconds
from repro.vmpi import process_backend_available

P = 4
#: N = LAPLACE_M^2 — at least 4096 unknowns at every scale
LAPLACE_M = {0: 64, 1: 128, 2: 256}[SCALE]
BIE_N = {0: 2048, 1: 4096, 2: 8192}[SCALE]
JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_backend_scaling.json")


def _backends() -> list[str]:
    if process_backend_available():
        return ["thread", "process"]
    return ["thread"]


#: the process-backend codec's cumulative shm-traffic counter — sampling
#: it around the repeated solve measures the *dispatch payload*: what
#: actually crosses the process boundary per solve (the resident store's
#: tier 1 shrinks this from O(factorization) to O(rhs))
_SHM_BYTES = REGISTRY.counter("repro_vmpi_shm_bytes_total")


def _time_backend(kernel, b, opts, domain, backend, relres):
    t0 = time.perf_counter()
    fact = parallel_srs_factor(kernel, P, opts=opts, domain=domain, backend=backend)
    wall_fact = time.perf_counter() - t0
    t0 = time.perf_counter()
    x = fact.solve(b)
    wall_solve = time.perf_counter() - t0
    # repeated solve on the cached factorization: the pool dispatches
    # O(rhs) bytes to its worker-resident shards
    shm_before = _SHM_BYTES.value()
    t0 = time.perf_counter()
    fact.solve(b)
    wall_solve_repeat = time.perf_counter() - t0
    stats = dict(
        wall_fact=wall_fact,
        wall_solve=wall_solve,
        wall_solve_repeat=wall_solve_repeat,
        wall_total=wall_fact + wall_solve,
        sim_fact=fact.t_fact,
        sim_solve=fact.t_solve,
        relres=relres(x, b),
        messages=fact.factor_run.total_messages,
        bytes=fact.factor_run.total_bytes,
        # shm bytes the repeated solve shipped parent -> workers (0 for
        # the thread backend, whose ranks share the parent's memory)
        dispatch_bytes_per_solve=int(_SHM_BYTES.value() - shm_before),
        resident=fact.resident is not None,
    )
    if stats["resident"]:
        # the counterfactual worker-resident shards remove: the same
        # pool dispatching the full factorization tree per solve
        from repro.parallel.solve import solve_worker

        shm_before = _SHM_BYTES.value()
        fact.backend.pool.run(solve_worker, (fact.workers, kernel.n, b))
        stats["dispatch_bytes_full_tree"] = int(_SHM_BYTES.value() - shm_before)
    return stats, x


def _run_workload(name, kernel, b, opts, relres, domain=None) -> dict:
    entry = {"workload": name, "n": int(kernel.n), "p": P, "backends": {}}
    solutions = {}
    for backend in _backends():
        stats, x = _time_backend(kernel, b, opts, domain, backend, relres)
        entry["backends"][backend] = stats
        solutions[backend] = x
    if len(solutions) > 1:
        t = entry["backends"]["thread"]
        entry["parity"] = {}
        entry["speedup_over_thread"] = {}
        for backend in _backends()[1:]:
            s = entry["backends"][backend]
            entry["parity"][backend] = {
                "solution_bitwise_equal": bool(
                    np.array_equal(solutions["thread"], solutions[backend])
                ),
                "messages_equal": t["messages"] == s["messages"],
                "bytes_equal": t["bytes"] == s["bytes"],
                "relres_equal": t["relres"] == s["relres"],
            }
            entry["speedup_over_thread"][backend] = t["wall_total"] / s["wall_total"]
        pp = entry["backends"]["process"]
        entry["pool_dispatch_bytes_drop"] = pp["dispatch_bytes_full_tree"] / max(
            pp["dispatch_bytes_per_solve"], 1
        )
    return entry


def _factor_mode_sweep(problem) -> dict:
    """Sequential strict-vs-batched factor wall time (best of 3).

    The level-batched sweep (``repro.core.batch``) must be the
    measured-faster mode at the Table II workload size — this entry is
    the recorded evidence, and the smoke test below pins batched <=
    strict so a regression fails CI.
    """
    from repro.core import srs_factor

    b = problem.random_rhs()
    entry: dict = {"n": int(problem.kernel.n), "repeats": 3}
    for mode in ("strict", "batched"):
        opts = SRSOptions(tol=1e-6, leaf_size=64, factor_mode=mode)
        times = []
        for _ in range(entry["repeats"]):
            t0 = time.perf_counter()
            fact = srs_factor(problem.kernel, opts=opts)
            times.append(time.perf_counter() - t0)
        entry[f"{mode}_seconds"] = min(times)
        entry[f"{mode}_relres"] = float(problem.relres(fact.solve(b), b))
    entry["speedup"] = entry["strict_seconds"] / entry["batched_seconds"]
    return entry


def run_sweep() -> dict:
    laplace = LaplaceVolumeProblem(LAPLACE_M)
    bie = InteriorDirichletProblem(StarCurve(1.0, 0.3, 5), BIE_N)
    f = bie.boundary_data(harmonic_exponential)
    workloads = [
        _run_workload(
            "laplace_volume",
            laplace.kernel,
            laplace.random_rhs(),
            SRSOptions(tol=1e-6, leaf_size=64),
            laplace.relres,
        ),
        _run_workload(
            "bie_star",
            bie.kernel,
            f,
            SRSOptions(tol=1e-10),
            bie.relres,
            domain=Square.bounding(bie.bd.points),
        ),
    ]
    from repro.vmpi.backend import effective_cpu_count

    return {
        "bench": "backend_scaling",
        "scale": SCALE,
        "p": P,
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "backends": _backends(),
        "workloads": workloads,
        "factor_mode": _factor_mode_sweep(laplace),
    }


def render(result: dict) -> str:
    table = Table(
        f"Execution-backend scaling at p = {P} "
        f"({result['effective_cpu_count']} usable cores; wall-clock seconds)",
        [
            "workload",
            "N",
            "backend",
            "t_fact",
            "t_solve",
            "t_solve2",
            "disp2 MB",
            "resident",
            "relres",
            "msgs",
            "MB sent",
        ],
    )
    for wl in result["workloads"]:
        for backend, s in wl["backends"].items():
            table.add_row(
                wl["workload"],
                wl["n"],
                backend,
                format_seconds(s["wall_fact"]),
                format_seconds(s["wall_solve"]),
                format_seconds(s["wall_solve_repeat"]),
                f"{s['dispatch_bytes_per_solve'] / 1e6:.3f}",
                "yes" if s["resident"] else "no",
                format_sci(s["relres"]),
                s["messages"],
                f"{s['bytes'] / 1e6:.1f}",
            )
    lines = [table.render()]
    for wl in result["workloads"]:
        if "speedup_over_thread" in wl:
            speed = ", ".join(
                f"{b}: {s:.2f}x" for b, s in wl["speedup_over_thread"].items()
            )
            lines.append(
                f"{wl['workload']}: wall-clock speedup over thread ({speed}); "
                f"dispatch payload {wl['pool_dispatch_bytes_drop']:.0f}x "
                f"smaller via worker-resident shards; parity "
                f"{wl['parity']}"
            )
    fm = result["factor_mode"]
    lines.append(
        f"sequential factor sweep at N={fm['n']}: strict "
        f"{format_seconds(fm['strict_seconds'])}, batched "
        f"{format_seconds(fm['batched_seconds'])} "
        f"({fm['speedup']:.2f}x, best of {fm['repeats']}); relres "
        f"strict {format_sci(fm['strict_relres'])} / batched "
        f"{format_sci(fm['batched_relres'])}"
    )
    return "\n".join(lines)


def write_json(result: dict) -> None:
    with open(JSON_PATH, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sweep():
    result = run_sweep()
    write_json(result)
    save_table("backend_scaling", render(result))
    return result


def test_backend_scaling_generated(sweep, benchmark):
    prob = LaplaceVolumeProblem(32)
    benchmark.pedantic(
        lambda: parallel_srs_factor(prob.kernel, P, opts=SRSOptions(tol=1e-6, leaf_size=32)),
        rounds=1,
        iterations=1,
    )
    assert os.path.exists(JSON_PATH)
    with open(JSON_PATH) as fh:
        on_disk = json.load(fh)
    assert on_disk["bench"] == "backend_scaling"
    assert {wl["workload"] for wl in on_disk["workloads"]} == {
        "laplace_volume",
        "bie_star",
    }


def test_backend_scaling_laplace_is_table_sized(sweep):
    laplace = next(w for w in sweep["workloads"] if w["workload"] == "laplace_volume")
    assert laplace["n"] >= 4096 and laplace["p"] == 4


def test_backends_observationally_identical(sweep):
    """Identical solution error and comm counts across every backend."""
    if len(sweep["backends"]) < 2:
        pytest.skip("process backend unavailable")
    for wl in sweep["workloads"]:
        for backend, parity in wl["parity"].items():
            assert parity["solution_bitwise_equal"], (wl["workload"], backend)
            assert parity["messages_equal"], (wl["workload"], backend)
            assert parity["bytes_equal"], (wl["workload"], backend)
            assert parity["relres_equal"], (wl["workload"], backend)


def test_pool_repeated_solve_dispatches_o_rhs_bytes(sweep):
    """The resident store's tier-1 contract, asserted hard: a pooled
    repeated solve ships at least 10x fewer dispatch-payload bytes than
    the same pool dispatching the full factorization tree. Byte counts
    are deterministic — unlike the wall-clock crossover below, this
    cannot be flaked away by machine load."""
    if len(sweep["backends"]) < 2:
        pytest.skip("process backend unavailable")
    laplace = next(w for w in sweep["workloads"] if w["workload"] == "laplace_volume")
    assert laplace["n"] >= 4096
    pp = laplace["backends"]["process"]
    assert pp["resident"] and not laplace["backends"]["thread"]["resident"]
    assert pp["dispatch_bytes_full_tree"] >= 10 * pp["dispatch_bytes_per_solve"], (
        pp["dispatch_bytes_full_tree"],
        pp["dispatch_bytes_per_solve"],
    )


@pytest.mark.xfail(
    strict=False,
    reason="wall-clock crossover depends on cores, BLAS threading, and "
    "machine load; the recorded speedup in BENCH_backend_scaling.json is "
    "the authoritative signal",
)
def test_process_backend_scales_with_cores(sweep):
    """On a real multi-core machine the GIL-free backends should win on
    the Laplace workload; on starved boxes (< 4 cores) only parity is
    required and the recorded speedup is informational. Non-strict:
    this documents the expectation without letting scheduler noise or
    BLAS-thread oversubscription red the build."""
    from repro.vmpi.backend import effective_cpu_count

    if len(sweep["backends"]) < 2:
        pytest.skip("process backend unavailable")
    laplace = next(w for w in sweep["workloads"] if w["workload"] == "laplace_volume")
    if effective_cpu_count() < 4:
        best = max(laplace["speedup_over_thread"].values())
        pytest.skip(
            f"only {effective_cpu_count()} usable core(s): recorded speedup "
            f"{best:.2f}x is informational"
        )
    assert laplace["speedup_over_thread"]["process"] > 1.0


def test_batched_factor_not_slower(sweep):
    """The level-batched sweep must not lose to strict at bench scale.

    Batched amortizes kernel evaluation and CPQR dispatch across a
    whole color phase; if it ever times slower than the per-box loop
    the batching machinery has regressed into pure overhead.
    """
    fm = sweep["factor_mode"]
    assert fm["batched_seconds"] <= fm["strict_seconds"], fm
    # and it must not buy that speed with accuracy
    assert fm["batched_relres"] <= 10 * fm["strict_relres"] + 1e-12


if __name__ == "__main__":
    result = run_sweep()
    write_json(result)
    save_table("backend_scaling", render(result))
    print(f"wrote {os.path.abspath(JSON_PATH)}")
