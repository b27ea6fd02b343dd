"""determinism: keep the bitwise-parity packages bitwise-reproducible.

The cross-backend parity suites assert *bitwise identical* results, so
the numerics packages must stay free of every nondeterminism source:

* wall-clock reads (``time.time``/``time_ns``, ``datetime.now`` family)
  feeding into computations;
* the stdlib ``random`` module (global, seed-shared state);
* NumPy's legacy global RNG (``np.random.rand`` etc.) and *unseeded*
  ``np.random.default_rng()`` — generators must take an explicit seed;
* ``np.empty`` escapes: a non-zero-size uninitialized buffer that is
  never subscript-assigned in its function can leak heap garbage into
  results. Zero-size sentinels (``np.empty(0, ...)``) are exempt; a
  buffer is accepted once the function stores into it (``out[...]=``,
  ``out.fill``) or hands it to a documented out-parameter;
* function-local ``import time``: a hot loop importing the clock
  inline hides wall-clock usage from review — time a section with
  ``time.perf_counter()`` from a module-level ``import time``, never
  an ad-hoc local import.

``time.perf_counter`` stays allowed: timing *reports* may vary, the
numbers in the solution vector may not.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    Checker,
    Finding,
    ParsedModule,
    Project,
    dotted_name,
    enclosing_functions,
    register_checker,
)

#: packages where the bitwise-parity suites must hold
NUMERICS_PACKAGES = (
    "repro.core",
    "repro.linalg",
    "repro.iterative",
    "repro.matvec",
    "repro.kernels",
    "repro.bie",
)

_WALL_CLOCK = {"time.time", "time.time_ns"}
_DATETIME = {"now", "utcnow", "today", "fromtimestamp"}
_NP_LEGACY_RNG = {
    "seed", "rand", "randn", "random", "randint", "random_sample",
    "normal", "uniform", "shuffle", "permutation", "choice", "standard_normal",
}


def _is_zero_size(call: ast.Call) -> bool:
    """``np.empty(0, ...)`` / ``np.empty((0, k), ...)`` sentinels."""
    if not call.args:
        return False
    shape = call.args[0]
    if isinstance(shape, ast.Constant):
        return shape.value == 0
    if isinstance(shape, ast.Tuple):
        return any(
            isinstance(el, ast.Constant) and el.value == 0 for el in shape.elts
        )
    return False


def _assigned_name(call: ast.Call, parents: dict[ast.AST, ast.AST]) -> str | None:
    """The simple name ``x`` when the call is exactly ``x = np.empty(...)``."""
    parent = parents.get(call)
    if isinstance(parent, ast.Assign) and parent.value is call:
        if len(parent.targets) == 1 and isinstance(parent.targets[0], ast.Name):
            return parent.targets[0].id
    if isinstance(parent, ast.AnnAssign) and parent.value is call:
        if isinstance(parent.target, ast.Name):
            return parent.target.id
    return None


def _buffer_is_written(fn: ast.AST, name: str) -> bool:
    """Any ``name[...] = ...``, ``name.fill(...)``, augmented subscript
    store, or use as an ``out=`` argument inside ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    return True
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "fill"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
            for kw in node.keywords:
                if (
                    kw.arg == "out"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id == name
                ):
                    return True
    return False


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


@register_checker
class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "no wall clock, stdlib random, legacy/unseeded np.random, or "
        "escaping np.empty buffers in the bitwise-parity packages"
    )

    def run(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        for mod in project.in_packages(NUMERICS_PACKAGES):
            findings.extend(self._check_module(mod))
        return findings

    def _check_module(self, mod: ParsedModule) -> Iterable[Finding]:
        imports_random = any(
            isinstance(node, ast.Import)
            and any(alias.name == "random" for alias in node.names)
            for node in ast.walk(mod.tree)
        )
        owners = enclosing_functions(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time" and isinstance(
                        owners.get(node),
                        (ast.FunctionDef, ast.AsyncFunctionDef),
                    ):
                        yield mod.finding(
                            node, self.name,
                            "function-local `import time` in a parity "
                            "package hides wall-clock use in a hot loop; "
                            "time sections with time.perf_counter() from a "
                            "module-level import",
                            "local-time-import",
                        )
            if isinstance(node, ast.ImportFrom):
                if node.module == "time" and any(
                    alias.name in {"time", "time_ns"} for alias in node.names
                ):
                    yield mod.finding(
                        node, self.name,
                        "wall-clock import in a parity package "
                        "(from time import time)", "wall-clock",
                    )
                if node.module == "random":
                    yield mod.finding(
                        node, self.name,
                        "stdlib random import in a parity package; use a "
                        "seeded np.random.default_rng passed in explicitly",
                        "stdlib-random",
                    )
            if isinstance(node, ast.Import) and imports_random:
                for alias in node.names:
                    if alias.name == "random":
                        yield mod.finding(
                            node, self.name,
                            "stdlib random import in a parity package; use a "
                            "seeded np.random.default_rng passed in explicitly",
                            "stdlib-random",
                        )

        parents = _parent_map(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if func in _WALL_CLOCK:
                yield mod.finding(
                    node, self.name,
                    f"{func}() in a parity package; wall-clock values must "
                    "not feed numerics (time.perf_counter for timing reports "
                    "is fine)", "wall-clock",
                )
            elif func is not None and func.startswith("datetime.") and (
                func.split(".")[-1] in _DATETIME
            ):
                yield mod.finding(
                    node, self.name,
                    f"{func}() in a parity package; dates must not feed "
                    "numerics", "wall-clock",
                )
            elif func is not None and func.startswith("random.") and imports_random:
                yield mod.finding(
                    node, self.name,
                    f"{func}() uses the stdlib global RNG; pass a seeded "
                    "np.random.default_rng instead", "stdlib-random",
                )
            elif func is not None and ".random." in f".{func}.":
                tail = func.split(".")[-1]
                if tail in _NP_LEGACY_RNG:
                    yield mod.finding(
                        node, self.name,
                        f"{func}() uses NumPy's legacy global RNG; construct "
                        "an explicitly seeded Generator instead",
                        "np-legacy-rng",
                    )
                elif tail == "default_rng" and not node.args and not node.keywords:
                    yield mod.finding(
                        node, self.name,
                        "unseeded np.random.default_rng() draws OS entropy; "
                        "parity packages must seed explicitly",
                        "unseeded-rng",
                    )
            elif func == "default_rng" and not node.args and not node.keywords:
                yield mod.finding(
                    node, self.name,
                    "unseeded default_rng() draws OS entropy; parity "
                    "packages must seed explicitly", "unseeded-rng",
                )
            elif func is not None and func.split(".")[-1] in ("empty", "empty_like"):
                root = func.split(".")[0]
                if root not in ("np", "numpy"):
                    continue
                if func.split(".")[-1] == "empty" and _is_zero_size(node):
                    continue
                name = _assigned_name(node, parents)
                fn = owners.get(node)
                if name is not None and fn is not None and (
                    _buffer_is_written(fn, name)
                ):
                    continue
                yield mod.finding(
                    node, self.name,
                    f"{func}(...) buffer escapes without a subscript store "
                    "in this function — uninitialized memory can leak into "
                    "results; use np.zeros, or fill the buffer before it "
                    "escapes", "empty-escape",
                )
