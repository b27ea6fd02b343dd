"""Command-line front: ``python -m repro.analysis [paths] [options]``.

Exit status: 0 on a clean tree, 1 when unsuppressed findings remain,
2 on usage errors — the contract the CI gate relies on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.core import all_checkers, analyze_paths
from repro.analysis.reporters import render_json, render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-invariant static analysis for the repro codebase.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format on stdout")
    parser.add_argument("--output", metavar="FILE",
                        help="also write a JSON report to FILE")
    parser.add_argument("--select", metavar="CHECKERS",
                        help="comma-separated checker names to run (default: all)")
    parser.add_argument("--verbose", action="store_true",
                        help="also list suppressed findings")
    parser.add_argument("--list-checkers", action="store_true",
                        help="print registered checkers and exit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_checkers:
        for name, checker in sorted(all_checkers().items()):
            print(f"{name}: {checker.description}")
        return 0
    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
    try:
        result = analyze_paths(args.paths, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = render_json(result) if args.format == "json" else render_text(
        result, verbose=args.verbose
    )
    sys.stdout.write(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(render_json(result))
    return 0 if result.clean else 1
