"""Tests for the shared-memory (box-coloring) comparator (Table VI)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import SRSOptions, srs_factor
from repro.geometry import uniform_grid
from repro.kernels import LaplaceKernelMatrix, dense_matrix
from repro.parallel import shared_memory_factor
from repro.parallel.shared import box_color, lpt_makespan


def test_box_coloring_valid():
    for bx in range(8):
        for by in range(8):
            for dx, dy in ((1, 0), (0, 1), (1, 1), (-1, 1)):
                nb = (bx + dx, by + dy)
                assert box_color((bx, by)) != box_color(nb) or max(abs(dx), abs(dy)) > 1 \
                    or box_color((bx, by)) != box_color(nb)
    # direct check: neighbors always differ
    for bx in range(8):
        for by in range(8):
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if (dx, dy) == (0, 0):
                        continue
                    assert box_color((bx, by)) != box_color((bx + dx, by + dy))


def test_lpt_makespan_bounds():
    durations = [5.0, 3.0, 3.0, 2.0, 2.0, 1.0]
    total = sum(durations)
    for t in (1, 2, 3, 4):
        ms = lpt_makespan(durations, t)
        assert ms >= total / t - 1e-12
        assert ms >= max(durations)
        assert ms <= total
    assert lpt_makespan(durations, 1) == total
    assert lpt_makespan([], 4) == 0.0


def test_factorization_identical_to_sequential(rng):
    """The comparator times the sequential core; it does not change it:
    its factorization is the strict sequential one, bit for bit."""
    m = 32
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    opts = SRSOptions(tol=1e-9, leaf_size=32, factor_mode="strict")
    res = shared_memory_factor(k, 4, opts)
    a = dense_matrix(k)
    b = rng.standard_normal(k.n)
    x = res.factorization.solve(b)
    assert np.array_equal(x, srs_factor(k, opts=opts).solve(b))
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-5


def test_speedup_monotone_in_threads():
    # measure once, schedule the *same* durations on other thread
    # counts; what the schedule makes of durations is pinned on fixed
    # ones below, since a bound on measured seconds is not tier-1's to
    # assert
    m = 32
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    one = shared_memory_factor(k, 1, SRSOptions(tol=1e-6, leaf_size=16))
    four, sixteen = one.schedule(4), one.schedule(16)
    assert four.task_times is one.task_times and four.factorization is one.factorization
    assert (one.nthreads, four.nthreads, sixteen.nthreads) == (1, 4, 16)
    assert one.sequential_t_fact == sixteen.sequential_t_fact
    # LPT on one colour batch of five tasks: a second thread always
    # shortens it, more threads never lengthen it, and past five threads
    # the longest task is the makespan
    uneven = replace(
        one,
        task_times=[(3, (2 * i, 0), s) for i, s in enumerate((3.0, 2.0, 3.0, 2.0, 2.0))],
        sync_overhead=0.0,
    )
    assert [uneven.schedule(t).t_fact for t in (1, 2, 4, 16)] == [12.0, 7.0, 4.0, 3.0]
    # strictly all the way where no outlier task can dominate its batch:
    # 16 unit tasks in each of the four color batches of an 8x8 level
    even = replace(
        one,
        task_times=[(3, (i, j), 1.0) for i in range(8) for j in range(8)],
        sync_overhead=0.0,
    )
    assert [even.schedule(t).t_fact for t in (1, 4, 16)] == [64.0, 16.0, 4.0]
    with pytest.raises(ValueError):
        one.schedule(0)


def test_comparator_pins_strict_in_its_own_options():
    # per-box durations exist for the singleton schedule only; the
    # comparator says so in the options it factors with, instead of the
    # sweep overriding the caller's mode when handed a task_times list
    k = LaplaceKernelMatrix(uniform_grid(16), 1.0 / 16)
    opts = SRSOptions(tol=1e-6, leaf_size=16, factor_mode="batched")
    res = shared_memory_factor(k, 4, opts)
    assert res.factorization.opts.factor_mode == "strict"
    boxes = {(rec.level, rec.box) for rec in res.factorization.records}
    assert {(lvl, box) for lvl, box, _s in res.task_times} == boxes
    assert {(lvl, box) for lvl, box, _s in res.apply_times} == boxes
    with pytest.raises(ValueError, match="task_times"):
        srs_factor(k, opts=opts, task_times=[])


def test_single_thread_close_to_sequential():
    # one thread runs every colour batch serially: the simulated time is
    # the measured task seconds plus one barrier per (level, colour)
    # batch, exactly, whatever the clock read
    m = 32
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    res = shared_memory_factor(k, 1, SRSOptions(tol=1e-6, leaf_size=32))
    batches = {(level, box_color(box)) for level, box, _s in res.task_times}
    work = sum(seconds for _l, _b, seconds in res.task_times)
    assert res.t_fact == pytest.approx(work + len(batches) * res.sync_overhead)


def test_invalid_threads():
    k = LaplaceKernelMatrix(uniform_grid(8), 1.0 / 8)
    with pytest.raises(ValueError):
        shared_memory_factor(k, 0)


def test_solve_estimate_positive():
    m = 16
    k = LaplaceKernelMatrix(uniform_grid(m), 1.0 / m)
    res = shared_memory_factor(k, 4, SRSOptions(tol=1e-6, leaf_size=16))
    assert res.t_solve > 0
    assert res.sequential_t_solve > 0
