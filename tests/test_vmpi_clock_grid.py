"""Tests for the simulated clock and cost model."""

import numpy as np
import pytest

from repro.vmpi import INTER_NODE, INTRA_NODE, CostModel, SimClock, run_spmd


def test_cost_model_transfer_time():
    cm = CostModel(alpha=1e-6, beta=1e-9)
    assert cm.transfer_time(0) == pytest.approx(1e-6)
    assert cm.transfer_time(1000) == pytest.approx(1e-6 + 1e-6)


def test_presets_ordered():
    assert INTER_NODE.alpha > INTRA_NODE.alpha


def test_clock_compute_accumulates():
    clk = SimClock()
    with clk.compute():
        sum(range(100_000))
    assert clk.compute_time > 0
    assert clk.local_time == pytest.approx(clk.compute_time)
    assert clk.other_time == pytest.approx(0.0)


def test_clock_receive_advances_to_availability():
    clk = SimClock(CostModel(alpha=1e-3, beta=0.0, sender_overhead=0.0))
    clk.on_receive(sent_time=5.0, nbytes=0)
    assert clk.local_time == pytest.approx(5.0 + 1e-3)
    assert clk.comm_time == pytest.approx(5.0 + 1e-3)
    # a message already available does not move the clock
    clk.on_receive(sent_time=0.0, nbytes=0)
    assert clk.local_time == pytest.approx(5.0 + 1e-3)


def test_compute_scale():
    clk = SimClock(CostModel(compute_scale=10.0))
    clk.add_compute(1.0)
    assert clk.local_time == pytest.approx(10.0)


def _one_message_prog(comm, payload):
    if comm.rank == 0:
        comm.send(payload, 1)
    else:
        comm.recv(0)


def test_simulated_latency_visible_in_run():
    cm = CostModel(alpha=0.5, beta=0.0, sender_overhead=0.0)
    run = run_spmd(2, _one_message_prog, 1, cost_model=cm)
    assert run.reports[1].sim_time >= 0.5


def test_bandwidth_term():
    cm = CostModel(alpha=0.0, beta=1.0e-6, sender_overhead=0.0)  # 1 us per byte
    run = run_spmd(2, _one_message_prog, np.zeros(125_000), cost_model=cm)  # 1 MB -> 1 s
    assert run.reports[1].sim_time == pytest.approx(1.0, rel=0.01)
