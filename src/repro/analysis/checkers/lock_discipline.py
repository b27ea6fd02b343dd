"""lock-discipline: guarded attributes stay guarded.

Over the threaded packages (``repro.service``, ``repro.vmpi``,
``repro.obs``, ``repro.store``): for every class owning a lock
attribute (``self._lock = threading.Lock()`` / ``RLock()`` /
``make_lock(...)``), infer which instance attributes the class treats
as lock-guarded: any attribute written at least once in a *lock-held
context*. A context is lock-held when it sits inside ``with
self.<lock>:``, inside a method named ``*_locked``, or inside a private
method whose intra-class call sites are all lock-held (computed to a
fixpoint, so helpers called only from held helpers count). ``__init__``
is construction-time and exempt. A guarded attribute written *outside*
every held context is a data race waiting for a second thread, and is
reported at the unguarded write.

Lock *order* is not checked here: the runtime watcher
(:mod:`repro.obs.lockwatch`) observes it on real traffic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.core import (
    Checker,
    Finding,
    ParsedModule,
    Project,
    dotted_name,
    register_checker,
)

#: the threaded packages whose classes are checked
LOCK_PACKAGES = ("repro.service", "repro.vmpi", "repro.obs", "repro.store")

#: constructors that produce a lock object
_LOCK_CTORS = {"Lock", "RLock", "make_lock"}

#: collection-mutation method names treated as writes to the receiver
_MUTATORS = {
    "append", "add", "pop", "popitem", "clear", "update", "remove",
    "discard", "extend", "insert", "setdefault", "move_to_end", "sort",
}


def _is_lock_ctor(value: ast.AST) -> bool:
    """Whether an assigned value expression constructs a lock."""
    if not isinstance(value, ast.Call):
        return False
    name = dotted_name(value.func)
    return name is not None and name.split(".")[-1] in _LOCK_CTORS


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for a ``self.X`` expression."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _written_self_attrs(stmt: ast.AST) -> list[tuple[str, ast.AST]]:
    """(attr, site) pairs for every ``self.X`` write inside one node."""
    writes: list[tuple[str, ast.AST]] = []

    def targets_of(node: ast.AST) -> list[ast.AST]:
        if isinstance(node, ast.Assign):
            return list(node.targets)
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        if isinstance(node, ast.Delete):
            return list(node.targets)
        return []

    def flatten(target: ast.AST) -> Iterable[ast.AST]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                yield from flatten(el)
        else:
            yield target

    for node in ast.walk(stmt):
        for raw in targets_of(node):
            for target in flatten(raw):
                attr = _self_attr(target)
                if attr is None and isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                if attr is not None:
                    writes.append((attr, target))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                attr = _self_attr(node.func.value)
                if attr is not None:
                    writes.append((attr, node))
    return writes


@dataclass
class ClassLocks:
    """One scoped class and its lock layout."""

    mod: ParsedModule
    node: ast.ClassDef
    locks: set[str] = field(default_factory=set)  #: lock attribute names
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    held_methods: set[str] = field(default_factory=set)


def _collect_class(mod: ParsedModule, cls: ast.ClassDef) -> ClassLocks:
    info = ClassLocks(mod, cls)
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            info.methods[item.name] = item
    for fn in info.methods.values():
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = _self_attr(node.targets[0])
                if attr is not None and _is_lock_ctor(node.value):
                    info.locks.add(attr)
    # a lock attr used in ``with self.X`` but assigned elsewhere (e.g.
    # injected) still counts, as long as the name says it is a lock
    for fn in info.methods.values():
        for node in ast.walk(fn):
            if isinstance(node, ast.With):
                for item in node.items:
                    attr = _self_attr(item.context_expr)
                    if attr and attr.lower().endswith("lock"):
                        info.locks.add(attr)
    return info


def _method_held_regions(info: ClassLocks, fn: ast.FunctionDef) -> set[int]:
    """Line numbers inside ``with self.<lock>`` blocks of one method."""
    lines: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.With) and any(
            _self_attr(item.context_expr) in info.locks for item in node.items
        ):
            end = getattr(node, "end_lineno", node.lineno)
            lines.update(range(node.lineno, end + 1))
    return lines


def _infer_held_methods(info: ClassLocks) -> None:
    """Fixpoint: ``*_locked`` methods, plus private methods all of whose
    intra-class call sites are lock-held."""
    held = {name for name in info.methods if name.endswith("_locked")}
    regions = {
        name: _method_held_regions(info, fn) for name, fn in info.methods.items()
    }
    # call sites: callee -> list of (caller, line)
    sites: dict[str, list[tuple[str, int]]] = {}
    for caller, fn in info.methods.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = _self_attr(node.func)
                if callee in info.methods:
                    sites.setdefault(callee, []).append((caller, node.lineno))
    changed = True
    while changed:
        changed = False
        for name in info.methods:
            if name in held or not name.startswith("_") or name == "__init__":
                continue
            calls = sites.get(name)
            if not calls:
                continue
            if all(
                caller in held or line in regions[caller]
                for caller, line in calls
            ):
                held.add(name)
                changed = True
    info.held_methods = held


def _check_guarded_attrs(info: ClassLocks) -> Iterable[Finding]:
    if not info.locks:
        return
    guarded: dict[str, int] = {}   # attr -> first held-write line
    unguarded: list[tuple[str, ast.AST]] = []
    for name, fn in info.methods.items():
        if name == "__init__":
            continue
        regions = _method_held_regions(info, fn)
        body_held = name in info.held_methods
        for attr, site in _written_self_attrs(fn):
            if attr in info.locks:
                continue
            line = getattr(site, "lineno", fn.lineno)
            if body_held or line in regions:
                guarded.setdefault(attr, line)
            else:
                unguarded.append((attr, site))
    for attr, site in unguarded:
        if attr in guarded:
            yield info.mod.finding(
                site, "lock-discipline",
                f"{info.node.name}.{attr} is written under "
                f"{info.node.name}'s lock elsewhere (line {guarded[attr]}) "
                "but written here without it — guard this write or move "
                "the attribute out of the locked set",
                f"{info.node.name}.{attr}",
            )


@register_checker
class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    description = "lock-guarded attributes never written unguarded"

    def run(self, project: Project) -> Iterable[Finding]:
        for mod in project.in_packages(LOCK_PACKAGES):
            for stmt in mod.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    info = _collect_class(mod, stmt)
                    _infer_held_methods(info)
                    yield from _check_guarded_attrs(info)
