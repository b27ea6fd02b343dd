"""Project-invariant static analysis for the repro codebase.

The three-layer stack (engine / facade / service) is held together by
contracts that no general-purpose linter knows about and no runtime
check sees: the shm create->registry->unlink lifetime protocol, the
centralized ``REPRO_*`` env-knob registry, lock-guarded mutation in the
serving and transport layers, bitwise-parity rules in the numerics
packages, span naming, and dead code. ``repro.analysis``
machine-checks them:

    python -m repro.analysis src/

An AST-based checker registry (:mod:`repro.analysis.checkers`) produces
:class:`~repro.analysis.core.Finding` s; inline suppressions
(``# repro: allow(<checker>) -- reason``) filter them; text/JSON
reporters render what is left. The CI gate fails on any unsuppressed
finding — the committed tree is a zero-finding state by construction
(see ``tests/test_analysis.py``'s meta-test and ``INVARIANTS.md``, which
names the one invariant each checker guards). Rules a runtime check
already enforces live there instead: metric-family names are checked by
``repro.obs.MetricsRegistry`` when a family is declared, lock order by
``repro.obs.lockwatch``.
"""

from repro.analysis.core import (
    AnalysisResult,
    Checker,
    Finding,
    ParsedModule,
    Project,
    all_checkers,
    analyze_paths,
    register_checker,
)
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "AnalysisResult",
    "Checker",
    "Finding",
    "ParsedModule",
    "Project",
    "all_checkers",
    "analyze_paths",
    "register_checker",
    "render_json",
    "render_text",
]
