"""Self-check of the perf ledger: registry, arithmetic, process hygiene.

Collected by tier-1. No wall-clock assertions and no solver runs: this
guards the contract (``BENCHMARK.json`` is what the harness implements)
and the two pieces of machinery a wrong answer would hide in — span
arithmetic and the supervisor.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

from . import spec, stats, supervisor

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_registry():
    with open(supervisor.REPO_ROOT / "BENCHMARK.json") as fh:
        committed = json.load(fh)
    assert committed == spec.benchmark_json()


def test_registry_meets_the_contract():
    doc = spec.benchmark_json()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    assert len(json.dumps(doc)) < 64 * 1024
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in doc["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # the driver's 4 + 22 x workloads runs must fit its 3420 s; a run is
    # its timed section plus ~13 s of warm-up round, set-up and teardown
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 13) < 3420


def test_every_layer_metric_names_what_it_should_move():
    metrics = {m.name for m in spec.END_TO_END}
    for layer in spec.PER_LAYER:
        assert layer.moves, layer.name
        for metric, workload in layer.moves:
            assert metric in metrics, (layer.name, metric)
            assert workload in spec.WORKLOAD_BY_NAME, (layer.name, workload)
        assert not layer.exact or layer.unit == "count", layer.name


def test_median_and_tail_percentile():
    values = [float(v) for v in range(1, 101)]
    summary = stats.summarize(values)
    assert summary["median"] == 50.5 and summary["count"] == 100
    # 100 samples: 10 lie beyond p90, only 5 beyond p95
    assert summary["tail_q"] == 90
    assert abs(summary["tail"] - 90.1) < 1e-9
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(1000) == 99
    assert stats.percentile([1.0, 3.0], 50) == 2.0
    assert abs(stats.quartile_spread([9.0, 10.0, 10.0, 11.0]) - 0.15) < 1e-12


def test_self_time_is_span_minus_children():
    def span(id, name, parent, start, end):
        return {"id": id, "name": name, "parent": parent, "start": start, "end": end}

    spans = [
        span(0, "factor", None, 0.0, 10.0),
        span(1, "kernels", 0, 1.0, 4.0),
        span(2, "linalg", 0, 5.0, 7.0),
        span(3, "kernels", 2, 5.5, 6.0),  # nested under linalg
        span(4, "other_root", None, 20.0, 21.0),
    ]
    own = stats.self_times(spans)
    assert own == {0: 5.0, 1: 3.0, 2: 1.5, 3: 0.5, 4: 1.0}
    below = stats.subtree(spans, 0)
    assert sorted(s["id"] for s in below) == [0, 1, 2, 3]
    by_name = stats.self_by_name(below)
    assert by_name == {"factor": 5.0, "kernels": 3.5, "linalg": 1.5}
    assert sum(by_name.values()) == 10.0  # adds up to the root's duration


ORPHANER = """
import json, subprocess, sys
grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
json.dump({"grandchild": grandchild.pid}, open(sys.argv[1], "w"))
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_supervisor_reaps_an_orphaned_grandchild(tmp_path, monkeypatch):
    monkeypatch.setattr(supervisor, "EXIT_GRACE_S", 0.2)
    tmp = tmp_path / "ledger-tmp"
    tmp.mkdir()
    result_path = str(tmp / "result.json")
    with supervisor.Reaper() as reaper:
        outcome = supervisor.run_supervised(
            [sys.executable, "-c", ORPHANER, result_path],
            env=dict(os.environ), tmp=str(tmp), result_path=result_path,
            deadline_s=60.0, reaper=reaper,
        )
    grandchild = outcome["result"]["grandchild"]
    assert outcome["returncode"] == 0 and not outcome["timed_out"]
    assert any("left running" in leak for leak in outcome["leaks"])
    assert not _alive(grandchild)
    assert not tmp.exists()


def test_reaper_cleans_up_when_the_harness_dies(tmp_path):
    tmp = tmp_path / "ledger-tmp"
    tmp.mkdir()
    victim = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(600)"], start_new_session=True
    )
    reaper = supervisor.Reaper()
    reaper.watch(victim.pid, str(tmp), supervisor.shm_names())
    reaper.close()  # end-of-file with the workload still registered
    assert victim.wait(timeout=30) == -9
    assert not tmp.exists()
