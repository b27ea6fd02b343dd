"""Deep-observability tests: profiler, solver health, stalls."""

import json
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.iterative.stall import refinement_stalled
from repro.obs import (
    HealthMonitor,
    MetricsRegistry,
    SamplingProfiler,
    Tracer,
    health,
    profile,
    solve_health,
    trace,
)
from repro.obs import tracer as tracer_module
from repro.obs.profiler import NO_SPAN
from repro.vmpi import ProcessBackend, process_backend_available, run_spmd

needs_process = pytest.mark.skipif(
    not process_backend_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


@pytest.fixture
def global_trace():
    """Enable the process-wide tracer for one test, then restore it."""
    was = trace.enabled
    trace.clear()
    trace.enable()
    yield trace
    trace.set_enabled(was)
    trace.clear()


def _busy(seconds):
    """Hold the GIL with real Python work for about ``seconds``."""
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += 1
    return x


def _sample_inside_span(prof, span_name, min_samples=8, timeout=10.0):
    """Busy-loop inside a span until ``prof`` has collected samples."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        with trace.span(span_name):
            _busy(0.05)
        if sum(prof.snapshot_table().values()) >= min_samples:
            return


# ----------------------------------------------------------------------
# sampling profiler
# ----------------------------------------------------------------------
def test_profiler_attributes_samples_to_spans(global_trace):
    prof = SamplingProfiler()
    assert prof.start(250)
    try:
        _sample_inside_span(prof, "profiled.hot")
    finally:
        prof.stop()
    stats = prof.stats()
    assert stats["samples"] >= 8
    assert stats["attributed"] / stats["samples"] > 0.8
    assert "profiled.hot" in stats["spans"]
    assert "main" in stats["tracks"]
    assert not prof.running and prof.active_hz == 0.0


def test_profiler_folded_and_speedscope_exports(tmp_path, global_trace):
    prof = SamplingProfiler()
    assert prof.start(250)
    try:
        _sample_inside_span(prof, "profiled.hot")
    finally:
        prof.stop()

    folded = prof.folded()
    assert folded.endswith("\n")
    assert any(
        line.startswith("main;profiled.hot;") for line in folded.splitlines()
    )
    fold_path = tmp_path / "prof.folded"
    prof.export_folded(str(fold_path))
    assert fold_path.read_text() == folded

    path = tmp_path / "prof.speedscope.json"
    doc = prof.export_speedscope(str(path), name="t")
    assert json.loads(path.read_text()) == doc
    names = [p["name"] for p in doc["profiles"]]
    assert "main" in names
    main_prof = doc["profiles"][names.index("main")]
    assert main_prof["type"] == "sampled" and main_prof["unit"] == "seconds"
    assert len(main_prof["samples"]) == len(main_prof["weights"])
    assert main_prof["endValue"] == pytest.approx(sum(main_prof["weights"]))
    # span attribution survives as the synthetic root frame
    frames = doc["shared"]["frames"]
    roots = {frames[s[0]]["name"] for s in main_prof["samples"]}
    assert "profiled.hot" in roots


def test_exports_write_through_a_per_call_temp_file(tmp_path):
    """A stale ``{path}.tmp.{pid}`` — here a directory, which nothing
    can open for writing — does not stop an export: each one writes its
    own temp file (``repro.util.write_atomic``) and leaves none behind."""
    exports = {
        "trace.json": trace.export_chrome,
        "prof.folded": profile.export_folded,
        "prof.speedscope.json": profile.export_speedscope,
    }
    for name, export in exports.items():
        (tmp_path / f"{name}.tmp.{os.getpid()}").mkdir()
        export(str(tmp_path / name))
    assert json.loads((tmp_path / "trace.json").read_text()) == trace.export_chrome()
    assert (tmp_path / "prof.folded").read_text() == profile.folded()
    assert "profiles" in json.loads((tmp_path / "prof.speedscope.json").read_text())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*exports, *(f"{name}.tmp.{os.getpid()}" for name in exports)]
    )


def test_profiler_drain_and_adopt_merge_counts():
    key = ("rank0", "work.step", (("f", "file.py", 1),))
    a = SamplingProfiler()
    a.adopt({key: 3})
    b = SamplingProfiler()
    b.adopt({key: 2})
    b.adopt(a.drain_table())
    assert a.snapshot_table() == {}
    assert b.snapshot_table() == {key: 5}
    assert b.stats()["tracks"] == {"rank0": 5}
    b.clear()
    assert b.stats()["samples"] == 0


def test_profiler_unattributed_samples_fold_under_no_span():
    prof = SamplingProfiler()
    prof.adopt({("main", NO_SPAN, (("f", "file.py", 1),)): 4})
    stats = prof.stats()
    assert stats["samples"] == 4 and stats["attributed"] == 0
    assert prof.folded().startswith(f"main;{NO_SPAN};f ")


def test_profiling_does_not_change_solve_bitwise():
    prob = repro.LaplaceVolumeProblem(m=8)
    b = prob.random_rhs(2)
    x_off = repro.solve(prob, b).x
    prof = SamplingProfiler()
    assert prof.start(250)
    try:
        x_on = repro.solve(prob, b).x
    finally:
        prof.stop()
    np.testing.assert_array_equal(x_off, x_on)


def _profiled_rank_prog(comm):
    with trace.span("work.burn", rank=comm.rank):
        _busy(0.25)
    return comm.rank


@needs_process
def test_process_ranks_ship_profile_tables(global_trace):
    profile.clear()
    assert profile.start(250)
    try:
        run = run_spmd(2, _profiled_rank_prog, backend=ProcessBackend())
    finally:
        profile.stop()
    assert run.results == [0, 1]
    table = profile.drain_table()
    tracks = {track for (track, _span, _frames) in table}
    assert {"rank0", "rank1"}.issubset(tracks)
    spans = {span for (_track, span, _frames) in table}
    assert "work.burn" in spans
    # adopted into the parent profiler, not left behind on the reports
    assert all(not r.profile for r in run.reports)

    # a warm solve is dispatched by the resident store, not by run_spmd:
    # what its ranks sampled must arrive the same way
    prob = repro.LaplaceVolumeProblem(m=32)
    fact = repro.parallel_srs_factor(prob.kernel, 4, backend="process")
    b = np.random.default_rng(0).standard_normal((prob.n, 64))
    fact.solve(b)
    assert profile.start(250)
    try:
        for _ in range(50):
            fact.solve(b)
            if any(track.startswith("rank") for (track, _, _) in profile.snapshot_table()):
                break
    finally:
        profile.stop()
    tracks = {track for (track, _span, _frames) in profile.drain_table()}
    assert any(track.startswith("rank") for track in tracks), tracks
    assert all(not r.profile for r in fact.last_solve_run.reports)


# ----------------------------------------------------------------------
# solver health
# ----------------------------------------------------------------------
def test_health_monitor_level_rollup():
    hm = HealthMonitor(registry=MetricsRegistry())
    hm.record_box(2, 100, 20)
    hm.record_box(2, 50, 30)
    hm.record_box(1, 10, 10)
    snap = hm.snapshot()
    assert [r["level"] for r in snap["levels"]] == [1, 2]
    rows = {r["level"]: r for r in snap["levels"]}
    assert rows[1]["boxes"] == 1
    assert rows[1]["avg_compression"] == pytest.approx(1.0)
    assert rows[2]["boxes"] == 2
    assert rows[2]["avg_rank"] == pytest.approx(25.0)
    assert rows[2]["max_rank"] == 30
    assert rows[2]["avg_compression"] == pytest.approx((0.2 + 0.6) / 2)


@pytest.mark.parametrize("execution", [
    "sequential", "thread", pytest.param("process", marks=needs_process),
])
def test_health_records_each_box_once(execution):
    """Every factored box reaches the parent's monitor exactly once,
    whichever process eliminated it."""
    def boxes():
        return sum(row["boxes"] for row in health.snapshot()["levels"])

    prob = repro.LaplaceVolumeProblem(m=32)
    before = boxes()
    ranks = 1 if execution == "sequential" else 4
    fact = repro.solve(
        prob, prob.random_rhs(0), execution=execution, ranks=ranks
    ).factorization
    records = (
        len(fact.records) if execution == "sequential"
        else sum(len(w.records) for w in fact.workers)
    )
    assert records > 0
    assert boxes() - before == records


def test_health_monitor_krylov_rollup():
    hm = HealthMonitor(registry=MetricsRegistry())
    hm.observe_krylov("pcg", SimpleNamespace(
        iterations=5, converged=True, stalled=False, final_residual=1e-13,
    ))
    hm.observe_krylov("pcg", SimpleNamespace(
        iterations=40, converged=False, stalled=True, final_residual=1e-3,
    ))
    (row,) = hm.snapshot()["krylov"]
    assert row["method"] == "pcg"
    assert row["solves"] == 2 and row["iterations"] == 45
    assert row["converged"] == 1 and row["stalls"] == 1
    assert row["last_relres"] == pytest.approx(1e-3)


def test_health_monitor_ignores_non_finite_residual():
    hm = HealthMonitor(registry=MetricsRegistry())
    hm.observe_krylov("pgmres", SimpleNamespace(
        iterations=1, converged=False, stalled=False,
        final_residual=float("inf"),
    ))
    (row,) = hm.snapshot()["krylov"]
    assert row["last_relres"] is None


def test_solve_health_without_feeds_is_none():
    assert solve_health(SimpleNamespace(), None) is None


def test_direct_solve_report_carries_health():
    prob = repro.LaplaceVolumeProblem(m=8)
    rep = repro.solve(prob, prob.random_rhs(0))
    h = rep.health
    assert h is not None and h.levels
    assert h.iterations == 0 and h.converged and not h.stalled
    doc = rep.to_dict()["health"]
    assert doc["levels"] and doc["levels"][0]["boxes"] > 0


def test_iterative_solve_report_carries_krylov_health():
    prob = repro.LaplaceVolumeProblem(m=8)
    rep = repro.solve(prob, prob.random_rhs(1), method="pcg")
    h = rep.health
    assert h is not None and h.iterations > 0
    assert h.converged and not h.stalled
    assert h.final_relres is not None and h.final_relres < 1e-10


def test_refinement_stall_detection():
    # converged never stalls; short histories have no "before" window
    assert not refinement_stalled([1.0] * 30, True)
    assert not refinement_stalled([1.0] * 5, False)
    # steadily improving residuals are slow, not stalled
    improving = [10.0 * 0.5 ** k for k in range(30)]
    assert not refinement_stalled(improving, False)
    # a plateau above tolerance is the stall signature
    plateau = [10.0 * 0.5 ** k for k in range(10)] + [1e-3] * 15
    assert refinement_stalled(plateau, False)


# ----------------------------------------------------------------------
# tracer ring buffer
# ----------------------------------------------------------------------
def test_tracer_ring_caps_and_counts_drops(monkeypatch):
    monkeypatch.setattr(tracer_module, "MAX_SPANS", 4)
    tr = Tracer(enabled=True)
    assert tr.max_spans() == 4
    before = tr.dropped_spans()
    for step in range(6):
        with tr.span("ring.step", step=step):
            pass
    spans = tr.snapshot()
    assert len(spans) == 4
    assert [s.attrs["step"] for s in spans] == [2, 3, 4, 5]  # oldest evicted
    assert tr.dropped_spans() - before == 2

