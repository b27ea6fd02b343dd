"""Finding/suppression machinery and the checker registry.

A :class:`Project` is the parsed form of every ``.py`` file under the
analyzed paths (one :class:`ParsedModule` each, with its AST, source
lines, dotted module name when the file lives under ``src/``, and the
inline suppressions scanned from its comments). Checkers are
project-scoped: each receives the whole :class:`Project`, so
whole-program checks (cross-module dead-code references, the
env-knob registry) need no side channel.

Suppression syntax, one per physical line, anchored to the finding's
reported line::

    risky_call()  # repro: allow(lock-discipline) -- epoch guard makes this safe

The reason string after ``--`` is mandatory: an unexplained suppression
is itself reported (checker ``suppression``), as is an ``allow`` naming
a checker that does not exist.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: matches one inline suppression comment
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<checkers>[a-z0-9_,\s-]+?)\s*\)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    ``symbol`` is a stable identifier (qualified name, knob name, span
    name...) that says *what* broke the rule independently of the line:
    tests and the JSON report identify findings by it.
    """

    path: str  #: project-relative posix path
    line: int
    col: int
    checker: str
    message: str
    symbol: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "checker": self.checker,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow(...)`` comment."""

    line: int
    checkers: tuple[str, ...]
    reason: str | None


class ParsedModule:
    """One source file: text, AST, suppressions, and naming context."""

    def __init__(self, path: Path, rel: str, text: str, tree: ast.Module,
                 module: str | None):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        #: dotted module name (``repro.vmpi.pool``) for files under a
        #: ``src/`` root; ``None`` for scripts (benchmarks, examples)
        self.module = module
        self.suppressions: list[Suppression] = _scan_suppressions(self.lines)
        self._by_line: dict[int, Suppression] = {s.line: s for s in self.suppressions}

    @property
    def package(self) -> str | None:
        """Parent package of :attr:`module` (``repro.vmpi``), or ``None``."""
        if self.module is None or "." not in self.module:
            return self.module
        return self.module.rsplit(".", 1)[0]

    def suppressed(self, line: int, checker: str) -> bool:
        sup = self._by_line.get(line)
        return sup is not None and checker in sup.checkers

    def finding(self, node: ast.AST | int, checker: str, message: str,
                symbol: str = "") -> Finding:
        """Build a finding anchored at an AST node (or raw line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(self.rel, line, col, checker, message, symbol)


def _scan_suppressions(lines: list[str]) -> list[Suppression]:
    out: list[Suppression] = []
    for lineno, line in enumerate(lines, 1):
        if "repro:" not in line:
            continue
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        names = tuple(
            name.strip() for name in m.group("checkers").split(",") if name.strip()
        )
        out.append(Suppression(lineno, names, m.group("reason")))
    return out


class Project:
    """Every parsed module of one analysis run."""

    def __init__(self, modules: list[ParsedModule], root: Path):
        self.modules = modules
        #: repository root (where ``README.md`` lives) — used by the
        #: env-discipline knob-table check
        self.root = root
        self._by_module = {m.module: m for m in modules if m.module}

    def module(self, name: str) -> ParsedModule | None:
        return self._by_module.get(name)

    def in_packages(self, packages: Iterable[str]) -> Iterator[ParsedModule]:
        """Modules whose dotted name sits under any of ``packages``."""
        prefixes = tuple(packages)
        for mod in self.modules:
            if mod.module is None:
                continue
            if any(mod.module == p or mod.module.startswith(p + ".")
                   for p in prefixes):
                yield mod


# ----------------------------------------------------------------------
# checker registry
# ----------------------------------------------------------------------
class Checker:
    """Base class: subclass, set ``name``/``description``, implement ``run``."""

    name = ""
    description = ""

    def run(self, project: Project) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError


_CHECKERS: dict[str, Checker] = {}

#: checker names the framework itself emits (always valid in allow())
FRAMEWORK_CHECKERS = ("parse", "suppression")


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name:
        raise ValueError(f"checker {cls.__name__} must set a name")
    if cls.name in _CHECKERS:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    _CHECKERS[cls.name] = cls()
    return cls


def all_checkers() -> dict[str, Checker]:
    """Name -> instance for every registered checker (imports them all)."""
    import repro.analysis.checkers  # repro: allow(dead-code) -- imported for its checker-registration side effect

    return dict(_CHECKERS)


# ----------------------------------------------------------------------
# driving an analysis
# ----------------------------------------------------------------------
@dataclass
class AnalysisResult:
    """Everything one run produced, pre- and post-filtering."""

    findings: list[Finding]          #: unsuppressed — the gate
    suppressed: list[Finding] = field(default_factory=list)
    checkers: tuple[str, ...] = ()
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _iter_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    seen: set[Path] = set()
    unique = []
    for f in files:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def _find_root(files: list[Path]) -> Path:
    """Repo root: nearest ancestor holding README.md or .git."""
    start = files[0].resolve().parent if files else Path.cwd()
    for candidate in [start, *start.parents]:
        if (candidate / "README.md").exists() or (candidate / ".git").exists():
            return candidate
    return start


def _module_name(path: Path, root: Path) -> str | None:
    """Dotted module for files under ``<root>/src/``; ``None`` otherwise."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return None
    parts = list(rel.parts)
    if "src" not in parts:
        return None
    parts = parts[parts.index("src") + 1:]
    if not parts:
        return None
    parts[-1] = parts[-1][:-3]  # strip .py
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


def load_project(paths: Iterable[str | Path]) -> tuple[Project, list[Finding]]:
    """Parse every file under ``paths``; syntax errors become findings."""
    files = _iter_files(paths)
    root = _find_root(files)
    modules: list[ParsedModule] = []
    errors: list[Finding] = []
    for path in files:
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            errors.append(Finding(
                rel, exc.lineno or 1, (exc.offset or 1) - 1, "parse",
                f"syntax error: {exc.msg}",
            ))
            continue
        modules.append(ParsedModule(path, rel, text, tree, _module_name(path, root)))
    return Project(modules, root), errors


def _suppression_findings(project: Project, known: set[str]) -> list[Finding]:
    """Malformed suppressions: unknown checker names, missing reasons."""
    out: list[Finding] = []
    for mod in project.modules:
        for sup in mod.suppressions:
            for name in sup.checkers:
                if name not in known:
                    out.append(mod.finding(
                        sup.line, "suppression",
                        f"allow({name}) names an unknown checker "
                        f"(known: {', '.join(sorted(known))})", name,
                    ))
            if not sup.reason:
                out.append(mod.finding(
                    sup.line, "suppression",
                    "suppression must carry a reason: "
                    "# repro: allow(<checker>) -- <why this is safe>",
                ))
    return out


def analyze_paths(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
) -> AnalysisResult:
    """Run the (selected) checkers over ``paths`` and filter the findings."""
    checkers = all_checkers()
    if select is not None:
        unknown = sorted(set(select) - set(checkers))
        if unknown:
            raise ValueError(f"unknown checker(s): {', '.join(unknown)}")
        checkers = {name: checkers[name] for name in select}
    project, errors = load_project(paths)
    raw: list[Finding] = list(errors)
    for checker in checkers.values():
        raw.extend(checker.run(project))
    known = set(all_checkers()) | set(FRAMEWORK_CHECKERS)
    raw.extend(_suppression_findings(project, known))

    by_rel = {mod.rel: mod for mod in project.modules}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in sorted(raw):
        mod = by_rel.get(finding.path)
        if mod is not None and mod.suppressed(finding.line, finding.checker):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return AnalysisResult(
        findings=kept,
        suppressed=suppressed,
        checkers=tuple(sorted(checkers)),
        files=len(project.modules) + len(errors),
    )


# ----------------------------------------------------------------------
# shared AST helpers used by several checkers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def enclosing_functions(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    """Map every node to its nearest enclosing function def (or module)."""
    owner: dict[ast.AST, ast.AST] = {}

    def visit(node: ast.AST, current: ast.AST) -> None:
        owner[node] = current
        nxt = node if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) else current
        for child in ast.iter_child_nodes(node):
            visit(child, nxt)

    visit(tree, tree)
    return owner


def literal_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


__all__ = [
    "AnalysisResult",
    "Checker",
    "Finding",
    "ParsedModule",
    "Project",
    "Suppression",
    "all_checkers",
    "analyze_paths",
    "dotted_name",
    "enclosing_functions",
    "iter_calls",
    "literal_str",
    "load_project",
    "register_checker",
]
