"""Tests for the repro.analysis static analyzer.

Golden fixtures per checker (a bad snippet producing a pinned finding,
and its corrected form producing none), the suppression round-trip,
the JSON report schema, the CLI exit contract — and the
meta-test: the live ``src/`` tree is finding-free.
"""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import analyze_paths, render_json
from repro.analysis.cli import main
from repro.analysis.core import all_checkers

REPO = Path(__file__).resolve().parents[1]

README_STUB = "# fixture\n\n`REPRO_SEED` seeds things.\n"


def write_project(tmp_path: Path, files: dict[str, str], readme: str = README_STUB):
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "README.md").write_text(readme, encoding="utf-8")
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(text), encoding="utf-8")
    return tmp_path / "src"


def run(tmp_path, files, select, readme: str = README_STUB):
    src = write_project(tmp_path, files, readme=readme)
    return analyze_paths([src], select=select)


# ----------------------------------------------------------------------
# framework
# ----------------------------------------------------------------------
def test_all_checkers_registered():
    names = set(all_checkers())
    assert names == {
        "shm-lifecycle", "env-discipline", "lock-discipline",
        "determinism", "obs-conventions", "dead-code",
    }


def test_syntax_error_becomes_parse_finding(tmp_path):
    result = run(tmp_path, {"src/repro/broken.py": "def f(:\n"}, ["dead-code"])
    assert [f.checker for f in result.findings] == ["parse"]
    assert result.findings[0].line == 1


def test_unknown_select_rejected(tmp_path):
    write_project(tmp_path, {"src/repro/ok.py": "X = 1\n"})
    with pytest.raises(ValueError, match="no-such-checker"):
        analyze_paths([tmp_path / "src"], select=["no-such-checker"])


# ----------------------------------------------------------------------
# shm-lifecycle
# ----------------------------------------------------------------------
SHM_BAD = """\
    from multiprocessing.shared_memory import SharedMemory

    def grab(n):
        shm = SharedMemory(create=True, size=n)
        return shm

    def drop(shm):
        shm.unlink()
"""


def test_shm_lifecycle_bad(tmp_path):
    result = run(tmp_path, {"src/repro/vmpi/rogue.py": SHM_BAD}, ["shm-lifecycle"])
    symbols = {(f.symbol, f.line) for f in result.findings}
    assert ("raw-create", 4) in symbols
    assert ("raw-unlink", 8) in symbols
    assert len(result.findings) == 2


def test_shm_lifecycle_codec_rules(tmp_path):
    codec = """\
        from multiprocessing.shared_memory import SharedMemory

        def _create_shm(n):
            return SharedMemory(create=True, size=n)

        def rogue_create(n):
            return SharedMemory(create=True, size=n)

        def encode(n, created):
            shm = _create_shm(n)
            created.append(shm.name)
            return shm

        def pack(buffers, registry):
            spans = []
            for buf in buffers:
                spans.append(buf.nbytes)
            shm = _create_shm(sum(spans))
            registry.put(shm.name)
            return shm

        def forgetful(n):
            return _create_shm(n)

        def collects_something_else(buffers):
            spans = []
            for buf in buffers:
                spans.append(buf.nbytes)
            return _create_shm(sum(spans))
    """
    result = run(
        tmp_path, {"src/repro/vmpi/process_backend.py": codec}, ["shm-lifecycle"]
    )
    symbols = {f.symbol for f in result.findings}
    assert "create-outside-helper" in symbols
    assert "unregistered-create:forgetful" in symbols
    # an .append of anything but the segment's name registers nothing
    assert "unregistered-create:collects_something_else" in symbols
    assert not any("encode" in s or "pack" in s for s in symbols)
    assert len(result.findings) == 3


def test_shm_lifecycle_clean(tmp_path):
    good = """\
        def send(payload, codec):
            return codec.encode(payload)
    """
    result = run(tmp_path, {"src/repro/vmpi/user.py": good}, ["shm-lifecycle"])
    assert result.clean


# ----------------------------------------------------------------------
# env-discipline
# ----------------------------------------------------------------------
CONFIG_FIXTURE = """\
    import os

    def env_int(name, default):
        return int(os.environ.get(name, default))

    def seed():
        return env_int("REPRO_SEED", 0)

    def undocumented():
        return env_int("REPRO_GHOST", 1)
"""


def test_env_discipline_reads_and_literals(tmp_path):
    rogue = """\
        import os

        def peek():
            return os.environ.get("REPRO_SEED", "")

        DOC = "set REPRO_TYPO to tune"
    """
    result = run(
        tmp_path,
        {
            "src/repro/util/config.py": CONFIG_FIXTURE,
            "src/repro/rogue.py": rogue,
        },
        ["env-discipline"],
    )
    symbols = {f.symbol for f in result.findings}
    assert "environ" in symbols            # os.environ outside util.config
    assert "unknown:REPRO_TYPO" in symbols  # literal with no accessor
    assert "undocumented:REPRO_GHOST" in symbols  # knob missing from README
    assert "unknown:REPRO_SEED" not in symbols    # real knob literal is fine


def test_env_discipline_prefix_literal_ok(tmp_path):
    doc = '''\
        """Knobs: ``REPRO_SE*`` family."""
    '''
    result = run(
        tmp_path,
        {
            "src/repro/util/config.py": CONFIG_FIXTURE.replace(
                "REPRO_SEED", "REPRO_SE_ED"
            ),
            "src/repro/doc.py": doc.replace("REPRO_SE*", "REPRO_SE_*"),
        },
        ["env-discipline"],
        readme="# fixture\n\nREPRO_SE_ED and REPRO_GHOST.\n",
    )
    assert not [f for f in result.findings if f.symbol.startswith("unknown:")]


def test_env_discipline_clean(tmp_path):
    result = run(
        tmp_path,
        {"src/repro/util/config.py": CONFIG_FIXTURE},
        ["env-discipline"],
        readme="# fixture\n\nREPRO_SEED and REPRO_GHOST are documented.\n",
    )
    assert result.clean


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
DETERMINISM_BAD = """\
    import time
    import numpy as np

    def stamp():
        return time.time()

    def draw():
        return np.random.rand(3)

    def gen():
        return np.random.default_rng()

    def buf(n):
        out = np.empty(n)
        return out
"""


def test_determinism_bad(tmp_path):
    result = run(
        tmp_path, {"src/repro/core/noise.py": DETERMINISM_BAD}, ["determinism"]
    )
    got = {(f.symbol, f.line) for f in result.findings}
    assert ("wall-clock", 5) in got
    assert ("np-legacy-rng", 8) in got
    assert ("unseeded-rng", 11) in got
    assert ("empty-escape", 14) in got
    assert len(result.findings) == 4


def test_determinism_good(tmp_path):
    good = """\
        import time
        import numpy as np

        def stamp():
            return time.perf_counter()

        def gen(seed):
            return np.random.default_rng(seed)

        def buf(n):
            out = np.empty(n)
            out[:] = 0.0
            return out

        def sentinel():
            return np.empty(0)
    """
    result = run(tmp_path, {"src/repro/linalg/ok.py": good}, ["determinism"])
    assert result.clean


def test_determinism_scoped_to_numerics(tmp_path):
    result = run(
        tmp_path, {"src/repro/util/clock.py": DETERMINISM_BAD}, ["determinism"]
    )
    assert result.clean  # util is not a bitwise-parity package


def test_determinism_local_time_import(tmp_path):
    bad = """\
        def factor_level(tree, level):
            import time as _time
            t0 = _time.perf_counter()
            return t0
    """
    result = run(tmp_path, {"src/repro/core/sweep.py": bad}, ["determinism"])
    got = {(f.symbol, f.line) for f in result.findings}
    assert ("local-time-import", 2) in got
    assert len(result.findings) == 1
    # the module-level `import time` in DETERMINISM_BAD stays un-flagged
    # (test_determinism_bad pins the exact finding count)


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
def test_lock_guarded_attr_written_unguarded(tmp_path):
    bad = """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, x):
                with self._lock:
                    self._items.append(x)

            def reset(self):
                self._items = []
    """
    result = run(tmp_path, {"src/repro/service/box.py": bad}, ["lock-discipline"])
    assert [f.symbol for f in result.findings] == ["Box._items"]
    assert result.findings[0].line == 13


def test_lock_guarded_attr_private_helper_propagation(tmp_path):
    good = """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, x):
                with self._lock:
                    self._put(x)

            def _put(self, x):
                self._items.append(x)

            def reset_locked(self):
                self._items = []
    """
    result = run(tmp_path, {"src/repro/service/box.py": good}, ["lock-discipline"])
    assert result.clean


# ----------------------------------------------------------------------
# obs-conventions
# ----------------------------------------------------------------------
def test_obs_conventions_bad(tmp_path):
    bad = """\
        from repro.obs import trace

        def f(name):
            with trace.span("Factor.Level"):
                pass
            with trace.span(name):
                pass
            with trace.track(name):
                pass
    """
    result = run(tmp_path, {"src/repro/obs/bad.py": bad}, ["obs-conventions"])
    got = {(f.symbol, f.line) for f in result.findings}
    assert ("span:Factor.Level", 4) in got     # span grammar violation
    assert ("dynamic-span", 6) in got          # non-literal span name
    assert ("dynamic-track", 8) in got         # non-literal track name
    assert len(result.findings) == 3


def test_obs_conventions_span_attrs(tmp_path):
    bad = """\
        from repro.obs import trace

        def f(attrs):
            with trace.span("factor.batch", **attrs):
                pass
            with trace.span("factor.batch", BadName=1):
                pass
            with trace.span("factor.batch", level=2, n_boxes=3):
                pass
    """
    result = run(tmp_path, {"src/repro/obs/attrs.py": bad}, ["obs-conventions"])
    got = {(f.symbol, f.line) for f in result.findings}
    assert ("span-attrs:factor.batch", 4) in got       # **-unpacking
    assert ("span-attr:factor.batch.BadName", 6) in got  # attr name grammar
    assert len(result.findings) == 2  # well-named kwargs stay clean


def test_obs_conventions_clean(tmp_path):
    good = """\
        from repro.obs import trace

        def f(rank):
            with trace.span("factor.skeletonize", level=2):
                pass
            with trace.track(f"rank{rank}"):
                pass
    """
    result = run(tmp_path, {"src/repro/obs/good.py": good}, ["obs-conventions"])
    assert result.clean


# ----------------------------------------------------------------------
# dead-code
# ----------------------------------------------------------------------
def test_dead_code_unused_import_and_private(tmp_path):
    files = {
        "src/repro/util/helpers.py": """\
            import os
            import json

            def _unused_helper():
                return 1

            def path_of(p):
                return os.fspath(p)
        """,
    }
    result = run(tmp_path, files, ["dead-code"])
    symbols = {f.symbol for f in result.findings}
    assert symbols == {"import:json", "private:_unused_helper"}


def test_dead_code_cross_module_references_keep_alive(tmp_path):
    files = {
        "src/repro/util/helpers.py": """\
            def _shared():
                return 1

            _STATE = {}
        """,
        "src/repro/util/client.py": """\
            from repro.util.helpers import _shared
            from repro.util import helpers

            def go():
                return _shared() + len(helpers._STATE)
        """,
    }
    result = run(tmp_path, files, ["dead-code"])
    assert result.clean


def test_dead_code_init_reexports_exempt(tmp_path):
    files = {
        "src/repro/util/__init__.py": "from repro.util.helpers import thing\n",
        "src/repro/util/helpers.py": "def thing():\n    return 1\n",
    }
    result = run(tmp_path, files, ["dead-code"])
    assert result.clean


# ----------------------------------------------------------------------
# suppression round-trip
# ----------------------------------------------------------------------
def test_suppression_with_reason(tmp_path):
    src = """\
        import json  # repro: allow(dead-code) -- fixture keeps it

        X = 1
    """
    result = run(tmp_path, {"src/repro/util/s.py": src}, ["dead-code"])
    assert result.clean
    assert [f.checker for f in result.suppressed] == ["dead-code"]


def test_suppression_without_reason_is_reported(tmp_path):
    src = """\
        import json  # repro: allow(dead-code)

        X = 1
    """
    result = run(tmp_path, {"src/repro/util/s.py": src}, ["dead-code"])
    checkers = [f.checker for f in result.findings]
    assert checkers == ["suppression"]
    assert "reason" in result.findings[0].message


def test_suppression_unknown_checker_is_reported(tmp_path):
    src = """\
        X = 1  # repro: allow(made-up-checker) -- because

        Y = 2
    """
    result = run(tmp_path, {"src/repro/util/s.py": src}, ["dead-code"])
    assert [f.checker for f in result.findings] == ["suppression"]
    assert "made-up-checker" in result.findings[0].message


# ----------------------------------------------------------------------
# reporters / CLI
# ----------------------------------------------------------------------
def test_json_report_schema(tmp_path):
    src = write_project(tmp_path, {"src/repro/util/j.py": "import json\nX = 1\n"})
    result = analyze_paths([src], select=["dead-code"])
    doc = json.loads(render_json(result))
    assert doc["schema"] == 2
    assert doc["ok"] is False
    assert doc["checkers"] == ["dead-code"]
    assert doc["counts"] == {"dead-code": 1}
    (entry,) = doc["findings"]
    assert set(entry) == {"path", "line", "col", "checker", "message", "symbol"}
    assert entry["path"].endswith("j.py")
    assert doc["suppressed"] == [] and "baselined" not in doc


def test_cli_exit_codes_and_output(tmp_path, capsys):
    src = write_project(tmp_path, {"src/repro/util/c.py": "import json\nX = 1\n"})
    out_file = tmp_path / "findings.json"
    assert main([str(src), "--select", "dead-code",
                 "--output", str(out_file)]) == 1
    assert "FAIL: 1 finding(s)" in capsys.readouterr().out
    assert json.loads(out_file.read_text())["ok"] is False

    clean = write_project(tmp_path / "ok", {"src/repro/util/c.py": "X = 1\n"})
    assert main([str(clean), "--select", "dead-code"]) == 0
    assert "OK: 0 finding(s)" in capsys.readouterr().out

    assert main(["--select", "nope", str(src)]) == 2


# ----------------------------------------------------------------------
# the gate itself
# ----------------------------------------------------------------------
def test_live_src_tree_is_finding_free():
    """The committed tree holds the zero-finding invariant."""
    result = analyze_paths([REPO / "src"])
    details = "\n".join(
        f"{f.location()}: [{f.checker}] {f.message}" for f in result.findings
    )
    assert result.clean, f"src/ has findings:\n{details}"

