"""Check runner, result writer and command line."""

import argparse
import os
from pathlib import Path

import repro
from benchmarks.ledger.driver import machine_block
from repro.reporting import Table
from repro.util.config import bench_scale

from . import accuracy, scaling  # noqa: F401  (importing them fills REGISTRY)
from .core import REGISTRY, Artefact, Run

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

CLOCK_NOTE = (
    '"wall" columns are SolveReport.t_setup / t_solve, seconds on this machine; "sim" columns '
    "are SolveReport.sim_t_*, the simulated rank clock (measured per-rank CPU time + alpha-beta "
    "message cost). The two are never summed or compared."
)


def run_checks(art: Artefact, blocks: list, data) -> tuple[list[str], bool]:
    """One line per check; only a failing *exact* check clears ``ok``."""
    nrows = sum(len(block.rows) for block in blocks if isinstance(block, Table))
    results = [("rows_generated", nrows >= art.min_rows, f"{nrows} of >= {art.min_rows} rows")]
    results += [(fn.__name__, *fn(data)) for fn in art.exact_checks]
    lines = [f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})" for name, ok, detail in results]
    for fn in art.observed_checks:
        holds, detail = fn(data)
        lines.append(f"observed {fn.__name__}: {'holds' if holds else 'does not hold'} ({detail})")
    return lines, all(ok for _name, ok, _detail in results)


def run_artefact(run: Run, art: Artefact, machine: str) -> bool:
    """Build, check, print and write one artefact; whether it passed."""
    blocks, data = art.build(run)
    lines, ok = run_checks(art, blocks, data)
    header = [
        f"# {art.name} - {art.reference} (REPRO_BENCH_SCALE={run.scale})",
        f"# machine: {machine}",
        f"# clocks: {CLOCK_NOTE}",
    ]
    rendered = [b.render() if isinstance(b, Table) else b for b in blocks]
    out = "\n\n".join(["\n".join(header), *rendered, "\n".join(lines)])
    with open(os.path.join(run.results_dir, art.name + ".txt"), "w") as fh:
        fh.write(out + "\n")
    print("\n" + out + "\n", flush=True)
    return ok


def listing(registry: dict[str, Artefact]) -> str:
    lines = []
    for name in sorted(registry):
        art = registry[name]
        checks = ["rows_generated [exact]"]
        checks += [f"{fn.__name__} [exact]" for fn in art.exact_checks]
        checks += [f"{fn.__name__} [observed]" for fn in art.observed_checks]
        lines.append(f"{name}\t{art.reference}\t{', '.join(checks)}")
    return "\n".join(lines)


def main(argv=None, *, results_dir=RESULTS_DIR, registry=REGISTRY) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.paper",
        description="Regenerate the paper's tables and figures (sizes: REPRO_BENCH_SCALE).",
    )
    parser.add_argument("--list", action="store_true", help="print the artefacts and exit")
    parser.add_argument("names", nargs="*", metavar="NAME", help="artefacts to run (default: all)")
    args = parser.parse_args(argv)
    if args.list:
        print(listing(registry))
        return 0
    unknown = [name for name in args.names if name not in registry]
    if unknown:
        parser.error(f"unknown artefact {', '.join(unknown)}; known: {', '.join(sorted(registry))}")

    os.makedirs(results_dir, exist_ok=True)
    run = Run(bench_scale(), str(results_dir))
    machine = ", ".join(f"{key}={value}" for key, value in machine_block().items())
    failed = []
    try:
        for name in args.names or sorted(registry):
            if not run_artefact(run, registry[name], machine):
                failed.append(name)
    finally:
        repro.vmpi.shutdown_all_pools()
    if failed:
        print(f"exact checks failed in: {', '.join(failed)}", flush=True)
    return 1 if failed else 0
