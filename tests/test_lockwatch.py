"""Tests for the REPRO_OBS-gated runtime lock-order watchdog."""

from __future__ import annotations

import logging
import threading

import pytest

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
