"""Smoke of ``python -m benchmarks.paper``: the registry, the exit-code
rule (exact checks gate, observed ones never do) and the source rules
(every time read off the SolveReport, no deleted shim)."""

import re
from pathlib import Path

import pytest

from benchmarks.paper import runner
from benchmarks.paper.core import Artefact

NAMES = [
    "ablation_admissibility", "ablation_algorithm", "ablation_preconditioners", "ablation_proxy",
    "bie_star", "comm", "fig6", "fig7", "fig8", "fig9",
    "table2", "table3", "table4", "table5", "table6", "table7",
]


def test_list_names_the_sixteen_artefacts(capsys):
    assert runner.main(["--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split("\t")[0] for line in lines] == NAMES
    for line in lines:
        _name, reference, checks = line.split("\t")
        assert reference
        assert "[exact]" in checks


def test_two_cheap_artefacts_run_and_write_their_tables(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0")
    names = ["ablation_admissibility", "ablation_algorithm", "table3"]
    assert runner.main(names, results_dir=tmp_path) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    titles = {
        "ablation_admissibility": "Ablation: weak vs strong",
        "ablation_algorithm": "Ablation: leaf_size",
        "table3": "Table III",
    }
    for name, title in titles.items():
        text = (tmp_path / f"{name}.txt").read_text()
        assert title in text
        assert "# machine: nproc=" in text and "# clocks:" in text
        assert re.search(r"^check \w+: PASS", text, re.M)


def test_unknown_artefact_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        runner.main(["table99"], results_dir=tmp_path)
    assert err.value.code == 2


def wrong_count(data):
    return data == 3, f"{data} rows"


def slower_clock(data):
    return False, "1.2 s vs 1.0 s"


def test_only_exact_checks_decide_the_exit_code(tmp_path, capsys):
    stub = Artefact("stub", "nowhere", 0, lambda run: (["a table"], 4))
    stub.observed(slower_clock)
    assert runner.main([], results_dir=tmp_path, registry={"stub": stub}) == 0
    assert "observed slower_clock: does not hold (1.2 s vs 1.0 s)" in capsys.readouterr().out
    stub.exact(wrong_count)
    assert runner.main([], results_dir=tmp_path, registry={"stub": stub}) == 1
    assert "check wrong_count: FAIL (4 rows)" in (tmp_path / "stub.txt").read_text()


def test_runner_source_reads_clocks_off_the_report_and_uses_no_shim():
    source = "".join(p.read_text() for p in Path(runner.__file__).parent.glob("*.py"))
    assert not re.search(r"perf_counter|time\.time\(|import time", source)
    shim = r"\.(factor|pcg|pgmres|solve_dense|unpreconditioned_cg|unpreconditioned_gmres)\("
    assert not re.search(shim, source)
