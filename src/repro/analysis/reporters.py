"""Render analysis results as terminal text or machine-readable JSON.

The JSON document is versioned (``schema``) and stable — CI uploads it
as an artifact on failure, and ``tests/test_analysis.py`` pins the
shape so downstream tooling can rely on it.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.core import AnalysisResult

#: bump when the JSON document shape changes incompatibly
JSON_SCHEMA = 2


def render_text(result: AnalysisResult, *, verbose: bool = False) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location()}: [{finding.checker}] {finding.message}"
        )
    if verbose:
        for finding in result.suppressed:
            lines.append(
                f"{finding.location()}: [{finding.checker}] suppressed: "
                f"{finding.message}"
            )
    counts = Counter(f.checker for f in result.findings)
    summary = ", ".join(f"{name}={n}" for name, n in sorted(counts.items()))
    status = "FAIL" if result.findings else "OK"
    lines.append(
        f"{status}: {len(result.findings)} finding(s) "
        f"({summary or 'none'}) in {result.files} file(s); "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines) + "\n"


def render_json(result: AnalysisResult) -> str:
    """Machine-readable report (see ``JSON_SCHEMA``)."""
    doc = {
        "schema": JSON_SCHEMA,
        "ok": result.clean,
        "files": result.files,
        "checkers": list(result.checkers),
        "counts": dict(Counter(f.checker for f in result.findings)),
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": [f.to_dict() for f in result.suppressed],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
