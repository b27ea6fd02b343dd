"""Test-suite hygiene: tier-1 asserts nothing about the wall clock.

A wall-clock bound in a unit test fails on a slow or busy machine
without a code change, so timing claims belong to the perf ledger
(``python -m benchmarks.ledger``), which measures them in interleaved
pairs. This check reads the AST of every ``tests/*.py`` file and fails
when an ``assert`` refers to a name its function bound, directly or
through other names, from ``time.perf_counter()``, ``time.time()`` or
``time.monotonic()``. A deadline loop (``while clock() < deadline``)
binds such a name but asserts nothing on it, so it passes.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CLOCKS = {"perf_counter", "time", "monotonic"}
#: list methods that fold a value into the receiver
_COLLECT = {"append", "extend", "insert", "add"}


def _is_clock_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr in CLOCKS and isinstance(func.value, ast.Name)
                and func.value.id == "time")
    return isinstance(func, ast.Name) and func.id in CLOCKS - {"time"}


def _reads_clock(node: ast.AST, tainted: set[str]) -> bool:
    return any(
        _is_clock_call(sub)
        or (isinstance(sub, ast.Name) and sub.id in tainted)
        for sub in ast.walk(node)
    )


def _clock_names(func: ast.AST) -> set[str]:
    """Names ``func`` binds from a clock reading, followed to a fixpoint."""
    tainted: set[str] = set()
    while True:
        before = len(tainted)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is not None and _reads_clock(node.value, tainted):
                    tainted.update(
                        sub.id for t in targets for sub in ast.walk(t)
                        if isinstance(sub, ast.Name)
                    )
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _COLLECT
                  and isinstance(node.func.value, ast.Name)
                  and any(_reads_clock(arg, tainted) for arg in node.args)):
                tainted.add(node.func.value.id)
        if len(tainted) == before:
            return tainted


def wall_clock_assertions(source: str, filename: str = "<test>") -> list[str]:
    """``file:line function`` for every assert that reads the wall clock."""
    hits = []
    for func in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tainted = _clock_names(func)
        hits.extend(
            f"{filename}:{node.lineno} {func.name}"
            for node in ast.walk(func)
            if isinstance(node, ast.Assert) and _reads_clock(node.test, tainted)
        )
    return hits


def test_no_wall_clock_assertions():
    hits = []
    for path in sorted(TESTS.glob("*.py")):
        hits += wall_clock_assertions(path.read_text(encoding="utf-8"), path.name)
    assert not hits, "tier-1 asserts on the wall clock:\n" + "\n".join(hits)


def test_the_check_flags_a_timed_bound_and_passes_a_deadline_loop():
    timed = (
        "import time\n"
        "def test_fast():\n"
        "    t0 = time.perf_counter()\n"
        "    work()\n"
        "    elapsed = time.perf_counter() - t0\n"
        "    assert elapsed < 1.0\n"
        "def test_collected():\n"
        "    runs = []\n"
        "    t0 = time.monotonic()\n"
        "    runs.append(time.monotonic() - t0)\n"
        "    assert min(runs) < 1.0\n"
    )
    assert wall_clock_assertions(timed) == [
        "<test>:6 test_fast", "<test>:11 test_collected",
    ]
    deadline = (
        "import time\n"
        "def test_eventually():\n"
        "    deadline = time.time() + 5.0\n"
        "    while not done() and time.time() < deadline:\n"
        "        pass\n"
        "    assert done()\n"
    )
    assert wall_clock_assertions(deadline) == []
