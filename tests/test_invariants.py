"""Project invariants that no runtime check sees, one tier-1 test per rule.

Each rule is a function that walks the ASTs of ``src/`` (parsed once;
the wall-clock rule walks ``tests/``) and returns one ``(path, line, tag, message)`` tuple per violation; its
``test_<rule>`` asserts the live tree yields none. INVARIANTS.md says
what each rule guards. Every rule also runs on planted snippets: a bad
one is flagged at the pinned line, a clean one passes. There is no
suppression syntax: the one exception, the shared-memory availability
probe, is named in :data:`SHM_EXEMPT` with its reason.
"""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path
from textwrap import dedent
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Module(NamedTuple):
    rel: str  #: repo-relative path, ``src/repro/vmpi/pool.py``
    name: str  #: dotted module name, ``repro.vmpi.pool``
    tree: ast.Module
    lines: list[str]
    nodes: list[ast.AST]  #: every node of ``tree``, walked once


def parse(files: dict[str, str]) -> list[Module]:
    """``{"src/repro/x.py": source}`` -> parsed modules."""
    mods = []
    for rel, text in sorted(files.items()):
        parts = rel[:-3].split("/")[1:]  # drop "src/" and ".py"
        if parts[-1] == "__init__":
            parts.pop()
        tree = ast.parse(text, rel)
        mods.append(Module(rel, ".".join(parts), tree, text.splitlines(),
                           list(ast.walk(tree))))
    return mods


@cache
def live() -> list[Module]:
    return parse({
        p.relative_to(REPO).as_posix(): p.read_text(encoding="utf-8")
        for p in (REPO / "src").rglob("*.py")
    })


def planted(files: dict[str, str]) -> list[Module]:
    return parse({rel: dedent(text) for rel, text in files.items()})


def hit(mod: Module, node: ast.AST | int, tag: str, message: str):
    return (mod.rel, node if isinstance(node, int) else node.lineno, tag, message)


def lines_tags(hits) -> set[tuple[int, str]]:
    return {(line, tag) for _rel, line, tag, _msg in hits}


def assert_clean(hits) -> None:
    assert not hits, "\n".join(
        f"{rel}:{line} [{tag}] {msg}" for rel, line, tag, msg in sorted(hits))


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def literal_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def calls(nodes) -> list[ast.Call]:
    return [node for node in nodes if isinstance(node, ast.Call)]


def owners(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    """Every node -> its nearest enclosing function def, else the module."""
    owner: dict[ast.AST, ast.AST] = {}

    def visit(node: ast.AST, current: ast.AST) -> None:
        owner[node] = current
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node
        for child in ast.iter_child_nodes(node):
            visit(child, current)

    visit(tree, tree)
    return owner


def in_packages(mods: list[Module], packages: tuple[str, ...]) -> list[Module]:
    return [m for m in mods
            if any(m.name == p or m.name.startswith(p + ".") for p in packages)]


# ----------------------------------------------------------------------
# shm-lifecycle: a segment is created and unlinked only in the codec,
# and registered by the function that created it
# ----------------------------------------------------------------------
CODEC = "repro.vmpi.process_backend"
#: codec functions that may call ``_create_shm`` without registering the
#: segment's name, each with its reason
SHM_EXEMPT = {
    "process_backend_available":
        "availability probe: the block is unlinked on the next line, "
        "before any payload protocol begins",
}


def _registers_name(fn: ast.AST) -> bool:
    """Does ``fn`` hand some ``x.name`` to a registry (put/append/add)?"""
    return any(
        isinstance(c.func, ast.Attribute) and c.func.attr in ("put", "append", "add")
        and any(isinstance(a, ast.Attribute) and a.attr == "name" for a in c.args)
        for c in calls(ast.walk(fn))
    )


def shm_lifecycle(mods: list[Module]) -> list:
    hits = []
    for mod in mods:
        in_codec = mod.name == CODEC
        owner = owners(mod.tree) if in_codec else {}
        for call in calls(mod.nodes):
            func = dotted(call.func) or ""
            fn = getattr(owner.get(call), "name", "<module>")
            creates = any(kw.arg == "create" and isinstance(kw.value, ast.Constant)
                          and kw.value.value is True for kw in call.keywords)
            if func.split(".")[-1] == "SharedMemory" and creates:
                if not in_codec:
                    hits.append(hit(
                        mod, call, "raw-create",
                        f"SharedMemory(create=True) outside the codec ({CODEC}); "
                        "allocate through its encode path so the registry "
                        "sweep sees the segment"))
                elif fn != "_create_shm":
                    hits.append(hit(
                        mod, call, "create-outside-helper",
                        "SharedMemory(create=True) outside _create_shm(); the "
                        "track=False split must stay in one place"))
            elif (isinstance(call.func, ast.Attribute) and call.func.attr == "unlink"
                  and not call.args and not call.keywords
                  and dotted(call.func.value) != "os" and not in_codec):
                hits.append(hit(
                    mod, call, "raw-unlink",
                    f".unlink() outside the codec ({CODEC}); segments are "
                    "reclaimed by their receiver or the registry sweep"))
            elif (in_codec and func == "_create_shm"
                  and fn not in ("_create_shm", *SHM_EXEMPT)
                  and not _registers_name(owner[call])):
                hits.append(hit(
                    mod, call, f"unregistered-create:{fn}",
                    f"_create_shm() in {fn}() registers no segment name "
                    "(.put/.append/.add of its .name): a crash here strands "
                    "the segment in /dev/shm"))
    return hits


def test_shm_lifecycle():
    assert_clean(shm_lifecycle(live()))


SHM_BAD = """\
    from multiprocessing.shared_memory import SharedMemory

    def grab(n):
        shm = SharedMemory(create=True, size=n)
        return shm

    def drop(shm):
        shm.unlink()
"""

CODEC_FIXTURE = """\
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


def test_shm_lifecycle_bad():
    hits = shm_lifecycle(planted({"src/repro/vmpi/rogue.py": SHM_BAD}))
    assert lines_tags(hits) == {(4, "raw-create"), (8, "raw-unlink")}


def test_shm_lifecycle_codec_rules():
    hits = shm_lifecycle(planted({"src/repro/vmpi/process_backend.py": CODEC_FIXTURE}))
    # an .append of anything but the segment's name registers nothing
    assert lines_tags(hits) == {
        (7, "create-outside-helper"),
        (23, "unregistered-create:forgetful"),
        (29, "unregistered-create:collects_something_else"),
    }


def test_shm_probe_exemption_is_by_function_name():
    codec = """\
        def process_backend_available():
            shm = _create_shm(16)
            shm.unlink()
            return True

        def probe_again():
            shm = _create_shm(16)
            shm.unlink()
    """
    hits = shm_lifecycle(planted({"src/repro/vmpi/process_backend.py": codec}))
    assert lines_tags(hits) == {(7, "unregistered-create:probe_again")}
    # the exemption names the codec's probe, not any module's function
    rogue = shm_lifecycle(planted({"src/repro/vmpi/rogue.py": codec}))
    assert lines_tags(rogue) == {(3, "raw-unlink"), (8, "raw-unlink")}


def test_shm_lifecycle_clean():
    good = """\
        def send(payload, codec):
            return codec.encode(payload)
    """
    assert_clean(shm_lifecycle(planted({"src/repro/vmpi/user.py": good})))


# ----------------------------------------------------------------------
# env-discipline: the environment is read only in util.config, every
# REPRO_* name in src/ and README.md is a knob it reads (or a REPRO_X_*
# prefix of one), and every knob it reads is in the README
# ----------------------------------------------------------------------
CONFIG = "repro.util.config"
KNOB_RE = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")
#: os-level env entry points (``os.environ`` itself is an attribute)
OS_ENV_FUNCS = {"os.getenv", "os.putenv", "os.unsetenv"}


def knobs_read(config: Module) -> dict[str, int]:
    """Knob name -> the line where ``util.config`` reads it."""
    knobs: dict[str, int] = {}
    for node in config.nodes:
        name = None
        if isinstance(node, ast.Call) and node.args:
            func = dotted(node.func) or ""
            if func in ("os.environ.get", "os.getenv") or func.split(".")[-1] in (
                "env_int", "env_float", "env_flag"
            ):
                name = literal_str(node.args[0])
        elif isinstance(node, ast.Subscript) and dotted(node.value) == "os.environ":
            name = literal_str(node.slice)
        if name and name.startswith("REPRO_"):
            knobs.setdefault(name, node.lineno)
    return knobs


def unknown_knobs(rel: str, lines: list[str], knobs: dict[str, int]) -> list:
    hits = []
    for lineno, line in enumerate(lines, 1):
        for m in KNOB_RE.finditer(line):
            name = m.group(0)
            if name in knobs or (
                name.endswith("_") and line[m.end():m.end() + 1] == "*"
                and any(k.startswith(name) for k in knobs)
            ):
                continue
            hits.append((
                rel, lineno, f"unknown:{name}",
                f"{name} is not a knob util.config reads (a typo, a knob "
                "without an accessor, or a deleted knob's leftover)"))
    return hits


def env_discipline(mods: list[Module], readme: str) -> list:
    config = next((m for m in mods if m.name == CONFIG), None)
    knobs = knobs_read(config) if config is not None else {}
    hits = []
    for mod in mods:
        if mod.name != CONFIG:
            for node in mod.nodes:
                if isinstance(node, ast.Attribute) and dotted(node) == "os.environ":
                    hits.append(hit(
                        mod, node, "environ",
                        "os.environ outside util.config; add a validated "
                        "accessor there and call it"))
                elif isinstance(node, ast.Call) and dotted(node.func) in OS_ENV_FUNCS:
                    hits.append(hit(
                        mod, node, dotted(node.func),
                        "env access outside util.config, where the env "
                        "contract lives"))
        if knobs:
            hits += unknown_knobs(mod.rel, mod.lines, knobs)
    if knobs:
        hits += unknown_knobs("README.md", readme.splitlines(), knobs)
        hits += [
            hit(config, line, f"undocumented:{knob}",
                f"{knob} is read by util.config but missing from the "
                "README knob tables")
            for knob, line in sorted(knobs.items()) if knob not in readme
        ]
    return hits


def test_env_discipline():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert_clean(env_discipline(live(), readme))


README_STUB = "# fixture\n\n`REPRO_SEED` seeds things.\n"

CONFIG_FIXTURE = """\
    import os

    def env_int(name, default):
        return int(os.environ.get(name, default))

    def seed():
        return env_int("REPRO_SEED", 0)

    def undocumented():
        return env_int("REPRO_GHOST", 1)
"""


def test_env_discipline_reads_and_literals():
    rogue = """\
        import os

        def peek():
            return os.environ.get("REPRO_SEED", "")

        DOC = "set REPRO_TYPO to tune"
    """
    hits = env_discipline(planted({
        "src/repro/util/config.py": CONFIG_FIXTURE,
        "src/repro/rogue.py": rogue,
    }), README_STUB)
    assert {(rel, line, tag) for rel, line, tag, _ in hits} == {
        ("src/repro/rogue.py", 4, "environ"),      # os.environ outside util.config
        ("src/repro/rogue.py", 6, "unknown:REPRO_TYPO"),  # no accessor reads it
        ("src/repro/util/config.py", 10, "undocumented:REPRO_GHOST"),  # not in README
    }


def test_env_discipline_readme_names_only_real_knobs():
    readme = (
        "# fixture\n\n"
        "| `REPRO_SEED` | 0 | seeds things |\n"
        "| `REPRO_GHOST` | 1 | haunts |\n"
        "| `REPRO_DELETED` | 7 | a knob nothing reads any more |\n"
        "Knob families: `REPRO_GH_*` is no prefix of a knob, `REPRO_GHO*` is no "
        "prefix form.\n"
    )
    hits = env_discipline(planted({"src/repro/util/config.py": CONFIG_FIXTURE}), readme)
    assert {(rel, line, tag) for rel, line, tag, _ in hits} == {
        ("README.md", 5, "unknown:REPRO_DELETED"),
        ("README.md", 6, "unknown:REPRO_GH_"),
        ("README.md", 6, "unknown:REPRO_GHO"),
    }


def test_env_discipline_prefix_literal_ok():
    doc = '''\
        """Knobs: the ``REPRO_SE_*`` family."""
    '''
    hits = env_discipline(planted({
        "src/repro/util/config.py": CONFIG_FIXTURE.replace("REPRO_SEED", "REPRO_SE_ED"),
        "src/repro/doc.py": doc,
    }), "# fixture\n\nREPRO_SE_ED and REPRO_GHOST; the REPRO_SE_* family.\n")
    assert_clean(hits)


def test_env_discipline_clean():
    hits = env_discipline(
        planted({"src/repro/util/config.py": CONFIG_FIXTURE}),
        "# fixture\n\nREPRO_SEED and REPRO_GHOST are documented.\n",
    )
    assert_clean(hits)


# ----------------------------------------------------------------------
# lock-discipline: in the threaded packages, an attribute a class writes
# under its lock is never written outside a lock-held context
# ----------------------------------------------------------------------
LOCK_PACKAGES = ("repro.service", "repro.vmpi", "repro.obs", "repro.store")
#: constructors that produce a lock object
LOCK_CTORS = {"Lock", "RLock", "make_lock"}
#: collection methods that count as a write to their receiver
MUTATORS = {
    "append", "add", "pop", "popitem", "clear", "update", "remove",
    "discard", "extend", "insert", "setdefault", "move_to_end", "sort",
}


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for a ``self.X`` expression."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _flatten(target: ast.AST):
    if isinstance(target, (ast.Tuple, ast.List)):
        for el in target.elts:
            yield from _flatten(el)
    else:
        yield target


def _self_writes(fn: ast.AST):
    """``(attr, node)`` for every ``self.X`` write in ``fn``: assignment,
    ``del``, subscript store, or a mutating method call."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in (t for raw in targets for t in _flatten(raw)):
            attr = _self_attr(target) or (
                _self_attr(target.value) if isinstance(target, ast.Subscript) else None)
            if attr:
                yield attr, target
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS):
            attr = _self_attr(node.func.value)
            if attr:
                yield attr, node


def _unguarded_writes(mod: Module, cls: ast.ClassDef) -> list:
    methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
    locks = set()
    for fn in methods.values():
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and _self_attr(node.targets[0])
                    and isinstance(node.value, ast.Call)
                    and (dotted(node.value.func) or "").split(".")[-1] in LOCK_CTORS):
                locks.add(_self_attr(node.targets[0]))
            elif isinstance(node, ast.With):
                # an injected lock counts when its name says it is one
                locks.update(
                    attr for attr in (_self_attr(i.context_expr) for i in node.items)
                    if attr and attr.lower().endswith("lock"))
    if not locks:
        return []
    held_lines = {
        name: {
            line for node in ast.walk(fn)
            if isinstance(node, ast.With)
            and any(_self_attr(i.context_expr) in locks for i in node.items)
            for line in range(node.lineno, node.end_lineno + 1)
        }
        for name, fn in methods.items()
    }
    sites: dict[str, list[tuple[str, int]]] = {}
    for caller, fn in methods.items():
        for call in calls(ast.walk(fn)):
            callee = _self_attr(call.func)
            if callee in methods:
                sites.setdefault(callee, []).append((caller, call.lineno))
    # held bodies: *_locked methods, then (to a fixpoint) private methods
    # whose every intra-class call site is held
    held = {name for name in methods if name.endswith("_locked")}
    changed = True
    while changed:
        changed = False
        for name in methods:
            if (name not in held and name.startswith("_") and name != "__init__"
                    and sites.get(name)
                    and all(c in held or line in held_lines[c] for c, line in sites[name])):
                held.add(name)
                changed = True
    guarded: dict[str, int] = {}
    unguarded = []
    for name, fn in methods.items():
        if name == "__init__":  # construction time: no other thread yet
            continue
        for attr, site in _self_writes(fn):
            if attr in locks:
                continue
            if name in held or site.lineno in held_lines[name]:
                guarded.setdefault(attr, site.lineno)
            else:
                unguarded.append((attr, site))
    return [
        hit(mod, site, f"{cls.name}.{attr}",
            f"{cls.name}.{attr} is written under the lock elsewhere (line "
            f"{guarded[attr]}) but without it here")
        for attr, site in unguarded if attr in guarded
    ]


def lock_discipline(mods: list[Module]) -> list:
    return [
        h for mod in in_packages(mods, LOCK_PACKAGES)
        for cls in mod.tree.body if isinstance(cls, ast.ClassDef)
        for h in _unguarded_writes(mod, cls)
    ]


def test_lock_discipline():
    assert_clean(lock_discipline(live()))


def test_lock_guarded_attr_written_unguarded():
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
    hits = lock_discipline(planted({"src/repro/service/box.py": bad}))
    assert lines_tags(hits) == {(13, "Box._items")}


def test_lock_guarded_attr_private_helper_propagation():
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
    assert_clean(lock_discipline(planted({"src/repro/service/box.py": good})))


# ----------------------------------------------------------------------
# determinism: the bitwise-parity packages read no wall clock, no stdlib
# or legacy/unseeded RNG, and let no unwritten np.empty buffer escape
# ----------------------------------------------------------------------
NUMERICS_PACKAGES = (
    "repro.core", "repro.linalg", "repro.iterative", "repro.matvec",
    "repro.kernels", "repro.bie",
)
DATETIME_NOW = {"now", "utcnow", "today", "fromtimestamp"}
NP_LEGACY_RNG = {
    "seed", "rand", "randn", "random", "randint", "random_sample",
    "normal", "uniform", "shuffle", "permutation", "choice", "standard_normal",
}


def _zero_size(call: ast.Call) -> bool:
    """``np.empty(0, ...)`` / ``np.empty((0, k), ...)`` sentinels."""
    shape = call.args[0] if call.args else None
    if isinstance(shape, ast.Constant):
        return shape.value == 0
    return isinstance(shape, ast.Tuple) and any(
        isinstance(el, ast.Constant) and el.value == 0 for el in shape.elts)


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _stores_into(fn: ast.AST, name: str) -> bool:
    """Does ``fn`` subscript-assign ``name``, ``name.fill(...)`` it, or
    pass it as an ``out=`` argument?"""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        if any(isinstance(t, ast.Subscript) and _is_name(t.value, name) for t in targets):
            return True
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "fill"
             and _is_name(node.func.value, name))
            or any(kw.arg == "out" and _is_name(kw.value, name) for kw in node.keywords)
        ):
            return True
    return False


def _assigned_name(call: ast.Call, parent: ast.AST | None) -> str | None:
    """``x`` when the call is exactly ``x = np.empty(...)``."""
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
    elif isinstance(parent, ast.AnnAssign):
        target = parent.target
    else:
        return None
    if parent.value is call and isinstance(target, ast.Name):
        return target.id
    return None


def _determinism_module(mod: Module) -> list:
    hits = []
    owner = owners(mod.tree)
    parents = {c: n for n in mod.nodes for c in ast.iter_child_nodes(n)}
    imports_random = any(
        isinstance(n, ast.Import) and any(a.name == "random" for a in n.names)
        for n in mod.nodes)
    for node in mod.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time" and isinstance(
                        owner[node], (ast.FunctionDef, ast.AsyncFunctionDef)):
                    hits.append(hit(
                        mod, node, "local-time-import",
                        "function-local `import time` hides wall-clock use; "
                        "time sections with perf_counter from a module-level "
                        "import"))
                if alias.name == "random":
                    hits.append(hit(mod, node, "stdlib-random",
                                    "stdlib random; pass a seeded np.random.default_rng"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and any(a.name in ("time", "time_ns") for a in node.names):
                hits.append(hit(mod, node, "wall-clock", "from time import time"))
            if node.module == "random":
                hits.append(hit(mod, node, "stdlib-random",
                                "stdlib random; pass a seeded np.random.default_rng"))
        elif isinstance(node, ast.Call) and (func := dotted(node.func)) is not None:
            tail = func.split(".")[-1]
            unseeded = not node.args and not node.keywords
            if func in ("time.time", "time.time_ns") or (
                    func.startswith("datetime.") and tail in DATETIME_NOW):
                hits.append(hit(mod, node, "wall-clock",
                                f"{func}() must not feed numerics (perf_counter "
                                "for timing reports is fine)"))
            elif func.startswith("random.") and imports_random:
                hits.append(hit(mod, node, "stdlib-random",
                                f"{func}() draws from the stdlib global RNG"))
            elif ".random." in f".{func}.":
                if tail in NP_LEGACY_RNG:
                    hits.append(hit(mod, node, "np-legacy-rng",
                                    f"{func}() draws from NumPy's legacy global RNG"))
                elif tail == "default_rng" and unseeded:
                    hits.append(hit(mod, node, "unseeded-rng",
                                    "unseeded default_rng() draws OS entropy"))
            elif func == "default_rng" and unseeded:
                hits.append(hit(mod, node, "unseeded-rng",
                                "unseeded default_rng() draws OS entropy"))
            elif tail in ("empty", "empty_like") and func.split(".")[0] in ("np", "numpy"):
                if tail == "empty" and _zero_size(node):
                    continue
                name = _assigned_name(node, parents.get(node))
                if name is not None and _stores_into(owner[node], name):
                    continue
                hits.append(hit(
                    mod, node, "empty-escape",
                    f"{func}(...) escapes with no store into it in this "
                    "function; use np.zeros or fill it first"))
    return hits


def determinism(mods: list[Module]) -> list:
    return [h for mod in in_packages(mods, NUMERICS_PACKAGES)
            for h in _determinism_module(mod)]


def test_determinism():
    assert_clean(determinism(live()))


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


def test_determinism_bad():
    hits = determinism(planted({"src/repro/core/noise.py": DETERMINISM_BAD}))
    assert lines_tags(hits) == {
        (5, "wall-clock"), (8, "np-legacy-rng"), (11, "unseeded-rng"),
        (14, "empty-escape"),
    }


def test_determinism_good():
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
    assert_clean(determinism(planted({"src/repro/linalg/ok.py": good})))


def test_determinism_scoped_to_numerics():
    # util is not a bitwise-parity package
    assert_clean(determinism(planted({"src/repro/util/clock.py": DETERMINISM_BAD})))


def test_determinism_local_time_import():
    bad = """\
        def factor_level(tree, level):
            import time as _time
            t0 = _time.perf_counter()
            return t0
    """
    hits = determinism(planted({"src/repro/core/sweep.py": bad}))
    # the module-level `import time` of DETERMINISM_BAD is not flagged
    assert lines_tags(hits) == {(2, "local-time-import")}


# ----------------------------------------------------------------------
# obs-conventions: span names are literal and dotted lower-case, span
# attributes are named lower-case keywords; trace.track names are
# literal or one f-string (the rank{r} worker tags)
# ----------------------------------------------------------------------
SPAN_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
ATTR_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def obs_conventions(mods: list[Module]) -> list:
    hits = []
    for mod in mods:
        for call in calls(mod.nodes):
            func = dotted(call.func)
            if (func is None or not isinstance(call.func, ast.Attribute)
                    or call.func.attr not in ("span", "track")
                    or "trace" not in func.rsplit(".", 1)[0] or not call.args):
                continue
            method = call.func.attr
            name = literal_str(call.args[0])
            if name is None:
                if not (method == "track" and isinstance(call.args[0], ast.JoinedStr)):
                    hits.append(hit(
                        mod, call, f"dynamic-{method}",
                        f"trace.{method}() name is not a string literal; a "
                        "dynamic name defeats dashboards and this check"))
                continue
            if method != "span":
                continue
            if not SPAN_RE.match(name):
                hits.append(hit(mod, call, f"span:{name}",
                                f"span name {name!r} is not {SPAN_RE.pattern}"))
            for kw in call.keywords:
                if kw.arg is None:
                    hits.append(hit(
                        mod, call, f"span-attrs:{name}",
                        f"span {name!r} sets attributes by **-unpacking; keys "
                        "must be static to stay joinable across exports"))
                elif not ATTR_RE.match(kw.arg):
                    hits.append(hit(
                        mod, call, f"span-attr:{name}.{kw.arg}",
                        f"span {name!r} attribute {kw.arg!r} is not {ATTR_RE.pattern}"))
    return hits


def test_obs_conventions():
    assert_clean(obs_conventions(live()))


def test_obs_conventions_bad():
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
    hits = obs_conventions(planted({"src/repro/obs/bad.py": bad}))
    assert lines_tags(hits) == {
        (4, "span:Factor.Level"), (6, "dynamic-span"), (8, "dynamic-track"),
    }


def test_obs_conventions_span_attrs():
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
    hits = obs_conventions(planted({"src/repro/obs/attrs.py": bad}))
    # the well-named keywords on line 8 pass
    assert lines_tags(hits) == {
        (4, "span-attrs:factor.batch"), (6, "span-attr:factor.batch.BadName"),
    }


def test_obs_conventions_clean():
    good = """\
        from repro.obs import trace

        def f(rank):
            with trace.span("factor.skeletonize", level=2):
                pass
            with trace.track(f"rank{rank}"):
                pass
    """
    assert_clean(obs_conventions(planted({"src/repro/obs/good.py": good})))


# ----------------------------------------------------------------------
# dead-code: no unused import outside package __init__ re-export
# surfaces, and no module-level _private symbol that nothing references
# ----------------------------------------------------------------------
def _import_bindings(mod: Module) -> list[tuple[str, ast.stmt]]:
    out = []
    for node in mod.nodes:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node) for a in node.names if a.name != "*"]
    return out


def _used_names(mod: Module) -> set[str]:
    """Name loads, ``global``/``nonlocal`` names and ``__all__`` entries."""
    used = set()
    for node in mod.nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            used.update(node.names)
    for stmt in mod.tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(_is_name(t, "__all__") for t in stmt.targets)
                and isinstance(stmt.value, (ast.List, ast.Tuple))):
            used.update(s for s in map(literal_str, stmt.value.elts) if s)
    return used


def _private_symbols(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level ``_name`` definitions (dunders are configuration)."""
    out: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out.setdefault(name, stmt)
    return out


def dead_code(mods: list[Module]) -> list:
    # the project-wide reference net is by bare name: coarse on purpose,
    # since a false "alive" only delays a deletion
    referenced = set()
    for mod in mods:
        for node in mod.nodes:
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    hits = []
    for mod in mods:
        used = _used_names(mod)
        bindings = _import_bindings(mod)
        if not mod.rel.endswith("/__init__.py"):
            hits += [
                hit(mod, stmt, f"import:{bound}",
                    f"unused import: nothing in this module references {bound!r}")
                for bound, stmt in bindings if bound not in used
            ]
        alive = used | referenced | {bound for bound, _stmt in bindings}
        hits += [
            hit(mod, stmt, f"private:{name}",
                f"private {name!r} is never referenced (no load here, no "
                "import or attribute access anywhere in src/): delete it")
            for name, stmt in _private_symbols(mod.tree).items() if name not in alive
        ]
    return hits


def test_dead_code():
    assert_clean(dead_code(live()))


def test_dead_code_unused_import_and_private():
    helpers = """\
        import os
        import json

        def _unused_helper():
            return 1

        def path_of(p):
            return os.fspath(p)
    """
    hits = dead_code(planted({"src/repro/util/helpers.py": helpers}))
    assert lines_tags(hits) == {(2, "import:json"), (4, "private:_unused_helper")}


def test_dead_code_cross_module_references_keep_alive():
    hits = dead_code(planted({
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
    }))
    assert_clean(hits)


def test_dead_code_init_reexports_exempt():
    hits = dead_code(planted({
        "src/repro/util/__init__.py": "from repro.util.helpers import thing\n",
        "src/repro/util/helpers.py": "def thing():\n    return 1\n",
    }))
    assert_clean(hits)


# ----------------------------------------------------------------------
# lu-home: LAPACK's pivoted LU (scipy's lu_factor / lu_solve, getrf /
# getrs) is reached only from repro.linalg.lu, where no solve writes to
# the factors
# ----------------------------------------------------------------------
LU_HOME = "repro.linalg.lu"
LU_WRAPPERS = ("lu_factor", "lu_solve")
LAPACK_LU = re.compile(r"[sdcz?]?getr[fs]")


def lu_home(mods: list[Module]) -> list:
    hits = []
    for mod in mods:
        if mod.name == LU_HOME:
            continue
        for node in mod.nodes:
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif (isinstance(node, ast.Call)
                  and (dotted(node.func) or "").endswith("get_lapack_funcs")):
                names = [s for arg in node.args[:1] for n in ast.walk(arg)
                         if (s := literal_str(n))]
            else:
                continue
            for name in names:
                if name in LU_WRAPPERS or LAPACK_LU.fullmatch(name):
                    hits.append(hit(
                        mod, node, f"lu:{name}",
                        f"{name} outside {LU_HOME}: scipy's getrs wrapper "
                        "shifts the pivot array in place, so concurrent solves "
                        "on one factorization race; factor with PartialLU"))
    return hits


def test_lu_home():
    assert_clean(lu_home(live()))


def test_lu_home_bad():
    bad = """\
        import scipy.linalg
        from scipy.linalg import lu_solve
        from scipy.linalg.lapack import dgetrf

        def factor(a):
            return scipy.linalg.lu_factor(a)

        def solver(dtype):
            return scipy.linalg.get_lapack_funcs(("getrs",), dtype=dtype)
    """
    hits = lu_home(planted({"src/repro/api/rogue.py": bad}))
    assert lines_tags(hits) == {
        (2, "lu:lu_solve"), (3, "lu:dgetrf"), (6, "lu:lu_factor"), (9, "lu:getrs"),
    }


def test_lu_home_clean():
    good = """\
        import scipy.linalg

        from repro.linalg.lu import PartialLU

        def factor(a):
            return PartialLU(a)

        def triangular(dtype):
            return scipy.linalg.get_lapack_funcs(("trtrs",), dtype=dtype)
    """
    assert_clean(lu_home(planted({"src/repro/api/user.py": good})))
    # the home module itself may call LAPACK's LU
    home = "import scipy.linalg\nlu = scipy.linalg.lu_factor\n"
    assert_clean(lu_home(planted({"src/repro/linalg/lu.py": home})))


# ----------------------------------------------------------------------
# wall-clock: tier-1 asserts nothing about the wall clock, read from a
# clock or off a report's timing fields
# ----------------------------------------------------------------------
CLOCKS = {"perf_counter", "time", "monotonic"}
#: fields that carry measured seconds: the reports' ``t_setup``,
#: ``t_solve``, ``t_queue``, the factorizations' ``t_fact`` / ``t_solve``
#: and their parts (``t_fact_comp``, ``sequential_t_fact``), and every
#: simulated ``sim_t_*`` (measured compute plus modelled messages)
TIMING_FIELD_RE = re.compile(r"^(sim_t_\w+|(\w+_)?t_(fact|setup|solve|queue)(_\w+)?)$")
#: list methods that fold a value into the receiver
COLLECT = {"append", "extend", "insert", "add"}
BOUNDS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_clock_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr in CLOCKS and isinstance(func.value, ast.Name)
                and func.value.id == "time")
    return isinstance(func, ast.Name) and func.id in CLOCKS - {"time"}


def _is_timing_field(node: ast.AST) -> bool:
    """``x.t_solve`` or ``x["t_solve"]``."""
    if isinstance(node, ast.Attribute):
        key = node.attr
    elif isinstance(node, ast.Subscript):
        key = literal_str(node.slice)
    else:
        return False
    return key is not None and TIMING_FIELD_RE.match(key) is not None


def _reads(node: ast.AST, source, tainted: set[str]) -> bool:
    return any(
        source(sub) or (isinstance(sub, ast.Name) and sub.id in tainted)
        for sub in ast.walk(node)
    )


def _tainted(func: ast.AST, source) -> set[str]:
    """Names ``func`` binds from a ``source`` read, followed to a fixpoint."""
    tainted: set[str] = set()
    while True:
        before = len(tainted)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is not None and _reads(node.value, source, tainted):
                    tainted.update(
                        sub.id for t in targets for sub in ast.walk(t)
                        if isinstance(sub, ast.Name)
                    )
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in COLLECT
                  and isinstance(node.func.value, ast.Name)
                  and any(_reads(arg, source, tainted) for arg in node.args)):
                tainted.add(node.func.value.id)
        if len(tainted) == before:
            return tainted


def _is_zero(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 0)


def _timing_bound(test: ast.AST, tainted: set[str]) -> bool:
    """Does ``test`` order a timing field against anything but 0? (That a
    time is positive or non-negative holds on any machine.)"""
    for cmp in ast.walk(test):
        if not isinstance(cmp, ast.Compare):
            continue
        sides = [cmp.left, *cmp.comparators]
        for op, a, b in zip(cmp.ops, sides, sides[1:]):
            if isinstance(op, BOUNDS) and any(
                _reads(x, _is_timing_field, tainted) and not _is_zero(y)
                for x, y in ((a, b), (b, a))
            ):
                return True
    return False


def wall_clock(mods: list[Module]) -> list:
    hits = {}
    for mod in mods:
        for func in mod.nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            clocked = _tainted(func, _is_clock_call)
            timed = _tainted(func, _is_timing_field)
            for node in ast.walk(func):
                if not isinstance(node, ast.Assert) or (mod.rel, node.lineno) in hits:
                    continue  # an enclosing function reported it already
                if _reads(node.test, _is_clock_call, clocked):
                    hits[mod.rel, node.lineno] = hit(
                        mod, node, f"clock:{func.name}",
                        "asserts on a wall-clock reading; it fails on a slow "
                        "machine without a code change (timing claims belong "
                        "to the perf ledger)")
                elif _timing_bound(node.test, timed):
                    hits[mod.rel, node.lineno] = hit(
                        mod, node, f"timing-bound:{func.name}",
                        "bounds a measured time (t_fact, t_setup, t_solve, "
                        "t_queue, sim_t_*); assert a count, a rank or a "
                        "residual instead, or move the claim to the perf ledger")
    return list(hits.values())


@cache
def live_tests() -> list[Module]:
    return parse({
        p.relative_to(REPO).as_posix(): p.read_text(encoding="utf-8")
        for p in (REPO / "tests").glob("*.py")
    })


def test_wall_clock():
    assert_clean(wall_clock(live_tests()))


WALL_CLOCK_BAD = """\
    import time

    def test_fast():
        t0 = time.perf_counter()
        work()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0

    def test_collected():
        runs = []
        t0 = time.monotonic()
        runs.append(time.monotonic() - t0)
        assert min(runs) < 1.0

    def test_report_fields(report, fact, payload, runs):
        assert report.t_solve < 0.5
        assert payload["report"]["t_queue"] <= 0.01
        assert fact.t_solve < fact.t_fact
        sims = [run.sim_t_fact for run in runs]
        assert max(sims) < 2.0 * min(sims)
        assert 0 < fact.t_fact_comp < 3.0
"""


def test_wall_clock_bad():
    hits = wall_clock(planted({"tests/test_timed.py": WALL_CLOCK_BAD}))
    assert lines_tags(hits) == {
        (7, "clock:test_fast"), (13, "clock:test_collected"),
        (16, "timing-bound:test_report_fields"), (17, "timing-bound:test_report_fields"),
        (18, "timing-bound:test_report_fields"), (20, "timing-bound:test_report_fields"),
        (21, "timing-bound:test_report_fields"),
    }


def test_wall_clock_clean():
    good = """\
        import time
        import pytest

        def test_eventually():
            deadline = time.time() + 5.0
            while not done() and time.time() < deadline:
                pass
            assert done()

        def test_report_fields(report, fact, payload, work):
            assert report.t_setup >= 0.0 and report.sim_t_fact > 0
            assert fact.t_fact == pytest.approx(fact.t_fact_comp + fact.t_fact_other)
            assert [fact.schedule(t).t_fact for t in (1, 4)] == [4.0, 1.0]
            assert {"t_queue", "t_setup", "t_solve"} <= set(payload["report"])
            assert fact.last_solve_run.total_bytes < fact.factor_run.total_bytes
    """
    assert_clean(wall_clock(planted({"tests/test_ok.py": good})))
