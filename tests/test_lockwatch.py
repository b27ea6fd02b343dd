"""Tests for the REPRO_OBS-gated runtime lock-order watchdog."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.obs.lockwatch import (
    WatchedLock,
    lock_order_edges,
    make_lock,
    reset_lock_watch,
)


@pytest.fixture(autouse=True)
def _clean_watch():
    reset_lock_watch()
    yield
    reset_lock_watch()


def test_make_lock_plain_when_obs_off(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    lock = make_lock("test.plain")
    assert not isinstance(lock, WatchedLock)
    assert isinstance(lock, type(threading.Lock()))
    rlock = make_lock("test.plain.r", reentrant=True)
    assert isinstance(rlock, type(threading.RLock()))
    with rlock:
        with rlock:  # reentrancy preserved
            pass


def test_make_lock_watched_when_obs_on(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    lock = make_lock("test.watched")
    assert isinstance(lock, WatchedLock)
    with lock:
        pass  # context manager protocol works


def test_edges_recorded_in_acquisition_order(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    a, b = make_lock("test.a"), make_lock("test.b")
    with a:
        with b:
            pass
    assert ("test.a", "test.b") in lock_order_edges()
    assert ("test.b", "test.a") not in lock_order_edges()


def test_inversion_warns_once(monkeypatch, caplog):
    monkeypatch.setenv("REPRO_OBS", "1")
    a, b = make_lock("test.a"), make_lock("test.b")
    with caplog.at_level(logging.WARNING, logger="repro.lockwatch"):
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        with b:  # same inversion again: no second warning
            with a:
                pass
    warnings = [r for r in caplog.records if "lock-order inversion" in r.message]
    assert len(warnings) == 1


def test_consistent_order_never_warns(monkeypatch, caplog):
    monkeypatch.setenv("REPRO_OBS", "1")
    a, b = make_lock("test.a"), make_lock("test.b")
    with caplog.at_level(logging.WARNING, logger="repro.lockwatch"):
        for _ in range(3):
            with a:
                with b:
                    pass
    assert not [r for r in caplog.records if "inversion" in r.message]


def test_reentrant_watched_lock_no_self_edge(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    r = make_lock("test.re", reentrant=True)
    with r:
        with r:
            pass
    assert not lock_order_edges()


def test_foreign_instance_nesting_warns_self_reentry_does_not(monkeypatch, caplog):
    """``other.shutdown()`` under ``self._lock``: two instances of one
    lock name have no defined order."""
    monkeypatch.setenv("REPRO_OBS", "1")
    mine = make_lock("test.pool", reentrant=True)
    other = make_lock("test.pool", reentrant=True)
    with caplog.at_level(logging.WARNING, logger="repro.lockwatch"):
        with mine:
            with mine:  # self re-entry: silent
                pass
        assert not [r for r in caplog.records if r.name == "repro.lockwatch"]
        with mine:
            with other:
                pass
        with mine:  # same hazard again: warned once
            with other:
                pass
    warnings = [r for r in caplog.records if "second instance" in r.message]
    assert len(warnings) == 1
    assert "test.pool" in warnings[0].getMessage()
    assert lock_order_edges() == {("test.pool", "test.pool")}


def test_transitive_inversion_detected(monkeypatch, caplog):
    """a->b and b->c observed, then c->a closes a 3-cycle."""
    monkeypatch.setenv("REPRO_OBS", "1")
    a, b, c = make_lock("test.a"), make_lock("test.b"), make_lock("test.c")
    with caplog.at_level(logging.WARNING, logger="repro.lockwatch"):
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass
    assert [r for r in caplog.records if "lock-order inversion" in r.message]


def test_out_of_order_release_tracked(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    a, b = make_lock("test.a"), make_lock("test.b")
    a.acquire()
    b.acquire()
    a.release()  # release in acquisition order, not reverse
    b.release()
    assert ("test.a", "test.b") in lock_order_edges()


def test_project_locks_become_watched_under_obs(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    from repro.vmpi.pool import RankPool

    pool = RankPool(1, "spawn")
    assert isinstance(pool._lock, WatchedLock)
    assert pool._lock.reentrant
    assert pool._lock.name == "vmpi.pool"


# ----------------------------------------------------------------------
# the gate: lock order observed on real traffic
# ----------------------------------------------------------------------
#: every lock-order edge the project sanctions, (held, acquired): a
#: resident solve holds its handle lock while it dispatches through the
#: rank pool (looking the pool up in the registry), and spans are
#: recorded under both
DECLARED_ORDER = {
    ("store.resident", "vmpi.pool"),
    ("store.resident", "vmpi.pool.registry"),
    ("store.resident", "obs.tracer"),
    ("vmpi.pool", "obs.tracer"),
}

_TRAFFIC_SCRIPT = """
import json, logging, tempfile
import repro
from repro.obs import lock_order_edges
from repro.service import SolveService

warnings = []

class Collect(logging.Handler):
    def emit(self, record):
        warnings.append(record.getMessage())

logging.getLogger("repro.lockwatch").addHandler(Collect())

prob = repro.LaplaceVolumeProblem(m=16)
solver = repro.Solver(prob, execution="process", ranks=4)
solver.solve(prob.random_rhs(1))
solver.solve(prob.random_rhs(2))

ops = [repro.LaplaceVolumeProblem(m=8), repro.LaplaceVolumeProblem(m=12)]
with tempfile.TemporaryDirectory() as root:
    with SolveService(store_dir=root, cache_bytes=1, workers=2) as service:
        for i in range(6):
            service.solve(ops[i % 2], ops[i % 2].random_rhs(i))
        stats = service.stats()

print(json.dumps({
    "edges": sorted(lock_order_edges()),
    "warnings": warnings,
    "evictions": stats.evictions,
    "store_hits": stats.store_hits_shared + stats.store_hits_disk,
}))
"""


def _acyclic(edges) -> bool:
    nodes = {n for edge in edges for n in edge}
    while nodes:
        sources = {n for n in nodes if not any(b == n and a in nodes for a, b in edges)}
        if not sources:
            return False
        nodes -= sources
    return True


def test_real_traffic_lock_order_is_the_declared_dag(tmp_path):
    """A process-pool solver (factor + two resident solves) and a solve
    service that evicts and reloads on every request, under
    ``REPRO_OBS=1``: no lockwatch warning, and every observed order edge
    is one of :data:`DECLARED_ORDER` — including the resident-solve edge
    a static reading of the code cannot resolve."""
    env = dict(os.environ, REPRO_OBS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(repro.__file__), os.pardir),
         env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _TRAFFIC_SCRIPT],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    edges = {tuple(edge) for edge in doc["edges"]}
    assert doc["evictions"] >= 4 and doc["store_hits"] > 0, doc
    assert doc["warnings"] == []
    assert _acyclic(DECLARED_ORDER)  # so every observed subset is too
    assert edges <= DECLARED_ORDER, edges - DECLARED_ORDER
    assert ("store.resident", "vmpi.pool") in edges
