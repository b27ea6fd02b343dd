"""Observability tests: metrics registry, tracer, exposition, merge, parity."""

import importlib
import json
import logging
import pkgutil
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.obs import (
    REGISTRY,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    log_event,
    parse_prometheus,
    render_prometheus,
    trace,
)
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


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
def test_counter_accumulates_per_labelset():
    reg = MetricsRegistry()
    c = reg.counter("repro_t_total", "help", labelnames=("kind",))
    c.inc(kind="a")
    c.inc(2, kind="a")
    c.inc(kind="b")
    assert c.value(kind="a") == 3
    assert c.value(kind="b") == 1
    assert c.value(kind="never") == 0


def test_counter_rejects_negative_and_bad_labels():
    reg = MetricsRegistry()
    c = reg.counter("repro_t_total", "help", labelnames=("kind",))
    with pytest.raises(ValueError):
        c.inc(-1, kind="a")
    with pytest.raises(ValueError):
        c.inc(kind="a", extra="nope")
    with pytest.raises(ValueError):
        c.inc()  # missing the declared label


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("repro_t_bytes", "help")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value() == 12


def test_concurrent_updates_are_not_lost():
    """The families are the only record of a count or a maximum, so
    ``inc`` and ``set_max`` must be atomic under thread switches."""
    reg = MetricsRegistry()
    c = reg.counter("repro_t_total", "help", labelnames=("kind",))
    g = reg.gauge("repro_t_max", "help")
    n_threads, n_each = 8, 2000

    def work(t: int) -> None:
        for i in range(n_each):
            c.inc(kind="a")
            g.set_max(t * n_each + i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert c.value(kind="a") == n_threads * n_each
    assert g.value() == n_threads * n_each - 1
    assert c.series() == {("a",): n_threads * n_each}


def test_histogram_buckets_and_render():
    reg = MetricsRegistry()
    h = reg.histogram("repro_t_seconds", "help", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    assert h.snapshot() == {"counts": [1, 1], "sum": pytest.approx(5.55), "count": 3}
    text = reg.render()
    samples = parse_prometheus(text)
    buckets = {labels["le"]: v for labels, v in samples["repro_t_seconds_bucket"]}
    assert buckets["0.1"] == 1
    assert buckets["1"] == 2  # cumulative
    assert buckets["+Inf"] == 3
    assert samples["repro_t_seconds_count"][0][1] == 3
    assert samples["repro_t_seconds_sum"][0][1] == pytest.approx(5.55)


def test_registry_get_or_create_and_conflicts():
    reg = MetricsRegistry()
    c1 = reg.counter("repro_t_total", "help")
    assert reg.counter("repro_t_total", "help") is c1
    with pytest.raises(ValueError):
        reg.gauge("repro_t_total", "help")  # kind conflict
    with pytest.raises(ValueError):
        reg.counter("repro_t_total", "help", labelnames=("x",))  # label conflict
    with pytest.raises(ValueError):
        reg.counter("0bad name", "help")  # invalid metric name


def test_registry_enforces_the_family_grammar():
    reg = MetricsRegistry()
    for kind, name in [
        ("counter", "repro_events"),           # counter without _total
        ("gauge", "repro_bytes_total"),        # non-counter with _total
        ("histogram", "repro_batch_count"),    # exposition-reserved suffix
        ("counter", "solves_total"),           # no repro_ prefix
    ]:
        with pytest.raises(ValueError, match=name):
            getattr(reg, kind)(name, "help")
    assert reg.collect() == []
    assert reg.histogram("repro_span_seconds", "help").kind == "histogram"


def test_every_module_declares_valid_families():
    """Import every ``repro`` module, so a module-level family that breaks
    the grammar fails here even when no other test imports its module."""
    modules = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    for name in modules:
        importlib.import_module(name)
    assert "repro.service.http" in modules
    assert all(m.name.startswith("repro_") for m in REGISTRY.collect())


def test_render_prometheus_well_formed():
    # hostile help text and label values must still render parseable
    reg = MetricsRegistry()
    reg.counter("repro_t_total", 'tricky "help" \\ with\nnewline').inc(2)
    reg.gauge("repro_t_gauge", "g", labelnames=("k",)).set(1.5, k='va"l\\ue\n')
    text = reg.render()
    assert text.endswith("\n")
    samples = parse_prometheus(text)
    assert samples["repro_t_total"] == [({}, 2.0)]
    ((labels, value),) = samples["repro_t_gauge"]
    assert "k" in labels and value == 1.5


def test_parse_prometheus_rejects_malformed():
    with pytest.raises(ValueError):
        parse_prometheus("no_value_here\n")
    with pytest.raises(ValueError):
        parse_prometheus("m not_a_number\n")
    with pytest.raises(ValueError):
        parse_prometheus("# BOGUS m counter\n")


def test_global_registry_exposition_parses():
    # whatever has accumulated process-wide must render parseable 0.0.4
    parse_prometheus(render_prometheus())


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_span_nesting_depth_and_parent():
    tr = Tracer(enabled=True)
    with tr.span("outer"):
        with tr.span("middle"):
            with tr.span("inner", k=1):
                pass
    spans = {s.name: s for s in tr.drain()}
    assert spans["outer"].depth == 0 and spans["outer"].parent is None
    assert spans["middle"].depth == 1 and spans["middle"].parent == "outer"
    assert spans["inner"].depth == 2 and spans["inner"].parent == "middle"
    assert spans["inner"].attrs == {"k": 1}
    # children close before parents, so recording order is inner-first
    assert [s.name for s in tr.drain()] == []


def test_span_timestamps_nest():
    tr = Tracer(enabled=True)
    with tr.span("outer"):
        time.sleep(0.002)
        with tr.span("inner"):
            time.sleep(0.002)
    inner, outer = sorted(tr.drain(), key=lambda s: s.start, reverse=True)
    assert outer.name == "outer" and inner.name == "inner"
    assert outer.start <= inner.start
    assert inner.start + inner.duration <= outer.start + outer.duration + 1e-9


def test_span_set_attaches_attrs():
    tr = Tracer(enabled=True)
    with tr.span("work", fixed=1) as sp:
        sp.set(result=42)
    (span,) = tr.drain()
    assert span.attrs == {"fixed": 1, "result": 42}


def test_track_labels_spans():
    tr = Tracer(enabled=True)
    with tr.track("rank7"):
        with tr.span("inside"):
            pass
    with tr.span("outside"):
        pass
    spans = {s.name: s.track for s in tr.drain()}
    assert spans == {"inside": "rank7", "outside": None}


def test_disabled_span_is_shared_noop():
    tr = Tracer(enabled=False)
    sp = tr.span("anything", big=list(range(3)))
    assert sp is tr.span("other")  # one shared no-op object
    with sp as s:
        s.set(x=1)
    assert tr.snapshot() == []


def test_adopt_and_drain():
    tr = Tracer(enabled=True)
    other = Tracer(enabled=True)
    with other.span("remote"):
        pass
    tr.adopt(other.drain())
    assert [s.name for s in tr.snapshot()] == ["remote"]
    assert [s.name for s in tr.drain()] == ["remote"]
    assert tr.snapshot() == []


# ----------------------------------------------------------------------
# chrome export
# ----------------------------------------------------------------------
def test_chrome_trace_structure(tmp_path):
    tr = Tracer(enabled=True)
    with tr.track("rank0"):
        with tr.span("a"):
            with tr.span("b"):
                pass
    path = tmp_path / "trace.json"
    doc = tr.export_chrome(str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == doc
    events = doc["traceEvents"]
    names = [e["args"]["name"] for e in events if e["name"] == "thread_name"]
    assert "rank0" in names
    xs = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in xs} == {"a", "b"}
    for e in xs:
        assert e["ts"] >= 0 and e["dur"] >= 0 and e["pid"] == 1


def test_traced_solve_has_three_nested_levels(global_trace):
    prob = repro.LaplaceVolumeProblem(m=8)
    repro.solve(prob, prob.random_rhs(0))
    doc = chrome_trace(global_trace.snapshot())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    depths = {e["args"]["depth"] for e in xs}
    assert {0, 1, 2}.issubset(depths)
    names = {e["name"] for e in xs}
    assert {"solve", "factor.level", "factor.batch", "factor.skeletonize"} <= names


# ----------------------------------------------------------------------
# distributed merge
# ----------------------------------------------------------------------
def _traced_rank_prog(comm):
    with trace.span("work.step", rank=comm.rank):
        pass
    return comm.rank


@needs_process
def test_process_ranks_merge_into_parent_tracer(global_trace):
    run = run_spmd(2, _traced_rank_prog, backend=ProcessBackend())
    assert run.results == [0, 1]
    spans = global_trace.snapshot()
    tracks = {s.track for s in spans}
    assert {"rank0", "rank1"}.issubset(tracks)
    names = {s.name for s in spans if s.track == "rank0"}
    assert {"vmpi.rank", "work.step"}.issubset(names)
    # adopted, not left behind on the reports
    assert all(not r.spans for r in run.reports)


@needs_process
def test_persistent_pool_ranks_merge(global_trace):
    be = ProcessBackend()
    try:
        run = run_spmd(2, _traced_rank_prog, backend=be)
    finally:
        from repro.vmpi.pool import shutdown_all_pools

        shutdown_all_pools()
    assert run.results == [0, 1]
    tracks = {s.track for s in global_trace.snapshot()}
    assert {"rank0", "rank1"}.issubset(tracks)


def test_thread_ranks_record_directly(global_trace):
    run = run_spmd(2, _traced_rank_prog, backend="thread")
    assert run.results == [0, 1]
    tracks = {s.track for s in global_trace.snapshot()}
    assert {"rank0", "rank1"}.issubset(tracks)


# ----------------------------------------------------------------------
# parity: tracing must not change the numbers
# ----------------------------------------------------------------------
def test_tracing_does_not_change_solve_bitwise():
    prob = repro.LaplaceVolumeProblem(m=8)
    b = prob.random_rhs(1)
    assert not trace.enabled  # REPRO_OBS defaults off
    x_off = repro.solve(prob, b).x
    trace.enable()
    try:
        x_on = repro.solve(prob, b).x
    finally:
        trace.disable()
        trace.clear()
    np.testing.assert_array_equal(x_off, x_on)


# ----------------------------------------------------------------------
# structured logs
# ----------------------------------------------------------------------
def test_log_event_emits_one_json_line(caplog):
    with caplog.at_level(logging.INFO, logger="repro.requests"):
        log_event("solve", request_id="abc", t_solve=0.25, skipped=None)
    (record,) = caplog.records
    doc = json.loads(record.getMessage())
    assert doc.pop("ts") > 0
    assert doc == {"event": "solve", "request_id": "abc", "t_solve": 0.25}


def test_service_report_carries_request_id_and_phase_times(caplog):
    from repro.service import SolveService

    prob = repro.LaplaceVolumeProblem(m=8)
    with SolveService(workers=2, batch_window=0.0) as service:
        with caplog.at_level(logging.INFO, logger="repro.requests"):
            report = service.submit(
                prob, prob.random_rhs(0), request_id="req-42"
            ).result()
    assert report.request_id == "req-42"
    assert not hasattr(report, "spans")
    d = report.to_dict(include_relres=False)
    assert d["request_id"] == "req-42" and "spans" not in d
    assert all(d[k] >= 0 for k in ("t_queue", "t_setup", "t_solve"))
    docs = [json.loads(r.getMessage()) for r in caplog.records]
    mine = [d for d in docs if d.get("request_id") == "req-42"]
    assert len(mine) == 1
    assert mine[0]["status"] == "ok" and mine[0]["event"] == "solve"


def test_service_failure_logs_error_line(caplog):
    from repro.service import SolveService

    prob = repro.LaplaceVolumeProblem(m=8)
    with SolveService(workers=1, batch_window=0.0) as service:
        with caplog.at_level(logging.INFO, logger="repro.requests"):
            fut = service.submit(
                prob, np.zeros(3), request_id="req-bad"
            )
            with pytest.raises(ValueError):
                fut.result()
    docs = [json.loads(r.getMessage()) for r in caplog.records]
    mine = [d for d in docs if d.get("request_id") == "req-bad"]
    assert mine and mine[0]["status"] == "error"
    assert "ValueError" in mine[0]["error"]


# ----------------------------------------------------------------------
# engine metrics land in the global registry
# ----------------------------------------------------------------------
def test_factor_metrics_accumulate():
    def boxes_total():
        samples = parse_prometheus(render_prometheus())
        return sum(
            v for _l, v in samples.get("repro_health_skeleton_rank_count", [])
        )

    before = boxes_total()
    prob = repro.LaplaceVolumeProblem(m=8)
    repro.solve(prob, prob.random_rhs(0))
    assert boxes_total() > before
    samples = parse_prometheus(render_prometheus())
    assert "repro_solve_total" in samples


def test_one_family_per_signal():
    """Each deleted alias family had a survivor reading the same thing:
    checked on one factor + pcg solve."""
    survivors = (
        "repro_health_krylov_iterations_total",  # was repro_solve_iterations_total
        "repro_health_skeleton_rank_count",  # was repro_id_compressions_total
        "repro_health_skeleton_rank_sum",  # was repro_skeleton_rank, per level
    )

    def totals():
        samples = parse_prometheus(render_prometheus())
        return samples, [sum(v for _l, v in samples.get(n, [])) for n in survivors]

    _, before = totals()
    prob = repro.LaplaceVolumeProblem(m=16)
    report = repro.solve(prob, prob.random_rhs(0), method="pcg")
    samples, after = totals()
    ranks = report.factorization.stats.ranks.values()
    assert report.iterations > 0
    assert [a - b for a, b in zip(after, before)] == [
        report.iterations,
        sum(len(level) for level in ranks),  # one ID per compressed box
        sum(sum(level) for level in ranks),
    ]
    for alias in (
        "repro_solve_iterations_total",
        "repro_service_rejected_total",
        "repro_id_compressions_total",
        "repro_skeleton_rank_count",
        "repro_factor_boxes_total",  # counted what skeleton_rank_count counts
    ):
        assert alias not in samples
