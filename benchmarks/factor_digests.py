"""Digests of factor records and solutions, for "same bits" claims.

Prints one BLAKE2b digest over every ``BoxRecord`` array (index sets,
``T``, LU factors and pivots, the multipliers ``e_cr``/``g_rc``, with
dtype, shape and memory order) and one over the solution ``x``, for
Laplace m=32 and scattering m=32 kappa=10, strict and batched sweeps,
on sequential, thread p=4 and process p=4 execution; the p=4 rows also
print the factor's message and byte counts. Run it against two commits
and diff the output:

    PYTHONPATH=src python benchmarks/factor_digests.py

With ``--check`` it exits 1 unless, for every problem and mode, the
thread and process rows are bitwise equal (records, solution, messages
and bytes) — the cross-backend parity every factor change must keep.
"""

import argparse
import hashlib
import sys

import numpy as np

import repro
from repro.apps import LaplaceVolumeProblem, ScatteringProblem


def _feed(h, arr: np.ndarray) -> None:
    order = "F" if arr.flags.f_contiguous and not arr.flags.c_contiguous else "C"
    h.update(f"{arr.dtype.str}{arr.shape}{order}".encode())
    h.update(arr.tobytes(order=order))


def _records(fact) -> list:
    if hasattr(fact, "workers"):
        return [rec for w in fact.workers for rec in w.records]
    return list(fact.records)


def digests(problem, execution: str, factor_mode: str) -> tuple[str, str, str]:
    """Record digest, solution digest, and ``messages / bytes`` (p=4 only)."""
    ranks = {} if execution == "sequential" else {"ranks": 4}
    report = repro.solve(
        problem, problem.random_rhs(0), method="direct", execution=execution,
        srs=repro.SRSOptions(factor_mode=factor_mode), **ranks,
    )
    fact = report.factorization
    h = hashlib.blake2b(digest_size=12)
    for rec in _records(fact):
        h.update(f"{rec.box}{rec.level}{rec.cluster_segments}".encode())
        for arr in (rec.redundant, rec.skeleton, rec.cluster, rec.T,
                    rec.lu._lu, rec.lu._piv, rec.e_cr, rec.g_rc):
            _feed(h, arr)
    hx = hashlib.blake2b(digest_size=12)
    _feed(hx, np.asarray(report.x))
    comm = ""
    if ranks:
        run = fact.factor_run
        comm = f"messages {run.total_messages} bytes {run.total_bytes}"
    return h.hexdigest(), hx.hexdigest(), comm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless each mode's thread and process rows are bitwise equal",
    )
    args = parser.parse_args(argv)
    problems = {
        "laplace m=32": LaplaceVolumeProblem(m=32),
        "scattering m=32 kappa=10": ScatteringProblem(32, 10.0),
    }
    mismatched = []
    try:
        for name, problem in problems.items():
            for mode in ("strict", "batched"):
                rows = {}
                for execution in ("sequential", "thread", "process"):
                    rows[execution] = rec, x, comm = digests(problem, execution, mode)
                    print(f"{name:26s} {mode:8s} {execution:10s} records {rec}  x {x}"
                          + (f"  {comm}" if comm else ""))
                if rows["thread"] != rows["process"]:
                    mismatched.append(f"{name} {mode}")
    finally:
        repro.vmpi.shutdown_all_pools()
    if args.check:
        if mismatched:
            print("thread != process: " + "; ".join(mismatched), file=sys.stderr)
            return 1
        print("thread == process on every problem and mode")
    return 0


if __name__ == "__main__":
    sys.exit(main())
