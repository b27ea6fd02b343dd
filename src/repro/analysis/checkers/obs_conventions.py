"""obs-conventions: span names follow one grammar, project-wide.

Spans exist only under ``REPRO_OBS=on`` and are looked up by name (the
perf ledger's layers, dashboards, the Chrome export), so their names
are checked statically rather than at runtime. Enforced:

* ``trace.span(...)`` / ``trace.track(...)`` take a *literal* first
  argument (a dynamic span name defeats both this checker and any
  dashboard query), and span names match
  ``segment(.segment)*`` with ``[a-z][a-z0-9_]*`` segments.
* span *attributes* are named keyword arguments matching
  ``[a-z][a-z0-9_]*`` — no ``**dynamic`` unpacking (unjoinable keys)
  and no camel/upper-case attribute names.

``trace.track(...)`` names are worker-tag prefixes (``rank{r}``) and
are exempt from the dotted grammar but must still be literal or a
single f-string.

Metric families are not checked here: ``MetricsRegistry`` enforces
their grammar, kind suffix and label set whenever a family is declared.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.core import (
    Checker,
    Finding,
    ParsedModule,
    Project,
    dotted_name,
    iter_calls,
    literal_str,
    register_checker,
)

SPAN_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
ATTR_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@register_checker
class ObsConventionsChecker(Checker):
    name = "obs-conventions"
    description = (
        "span names are literal and follow the dotted grammar; span "
        "attributes are named, lower-case keywords"
    )

    def run(self, project: Project) -> Iterable[Finding]:
        for mod in project.modules:
            for call in iter_calls(mod.tree):
                yield from self._check_span(mod, call)

    def _check_span(self, mod: ParsedModule, call: ast.Call) -> Iterable[Finding]:
        func = dotted_name(call.func)
        if func is None or not isinstance(call.func, ast.Attribute):
            return
        method = call.func.attr
        receiver = func.rsplit(".", 1)[0]
        if method not in ("span", "track") or "trace" not in receiver:
            return
        if not call.args:
            return
        name = literal_str(call.args[0])
        if name is None:
            if method == "track" and isinstance(call.args[0], ast.JoinedStr):
                return  # rank{r} worker tags are legitimately dynamic
            yield mod.finding(
                call, self.name,
                f"trace.{method}() name is not a string literal; dynamic "
                "span names defeat dashboards and this checker",
                f"dynamic-{method}",
            )
            return
        if method != "span":
            return
        if not SPAN_RE.match(name):
            yield mod.finding(
                call, self.name,
                f"span name {name!r} violates the grammar "
                "lowercase.dotted_segments (^[a-z][a-z0-9_]*"
                "(\\.[a-z][a-z0-9_]*)*$)",
                f"span:{name}",
            )
        for kw in call.keywords:
            if kw.arg is None:
                yield mod.finding(
                    call, self.name,
                    f"span {name!r} sets attributes via **-unpacking; "
                    "attribute keys must be statically known to stay "
                    "joinable across exports",
                    f"span-attrs:{name}",
                )
            elif not ATTR_RE.match(kw.arg):
                yield mod.finding(
                    call, self.name,
                    f"span {name!r} attribute {kw.arg!r} violates the "
                    "grammar ^[a-z][a-z0-9_]*$",
                    f"span-attr:{name}.{kw.arg}",
                )
