"""The harness: one command, four workloads, every metric by name.

``python -m benchmarks.ledger`` (from the repo root) runs the suite;
``--workload W --trace 0|1`` runs one pass, which is how the driver of
``BENCHMARK.json`` calls it. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

This process imports nothing but the standard library. Each pass runs in
a session of its own under :mod:`.supervisor`.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from .spec import (
    CHILD_ENV,
    DEADLINE_S,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    WORKLOAD_BY_NAME,
)
from .stats import quartile_spread
from .supervisor import REPO_ROOT, Reaper, Terminated, run_supervised

RESULTS_DIR = REPO_ROOT / "benchmarks" / "results" / "ledger"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    # the one library path the program needs; the repo root comes from cwd
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_json_atomic(path, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(f"{path}.part", "w") as fh:
        json.dump(payload, fh, indent=1)
    os.replace(f"{path}.part", path)


def run_pass(name: str, seed: int, seconds: float, trace: bool,
             reaper: Reaper, out_dir) -> dict:
    """One supervised pass of one workload; writes and returns its record."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="ledger-tmp-", dir=RESULTS_DIR)
    env = child_env()
    env["TMPDIR"] = tmp  # nothing of ours lands in /tmp
    result_path = os.path.join(tmp, "result.json")
    argv = [
        sys.executable, "-m", "benchmarks.ledger.driver",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--tmp", tmp, "--out", result_path,
    ]
    t0 = time.perf_counter()
    outcome = run_supervised(
        argv, env=env, tmp=tmp, result_path=result_path,
        deadline_s=DEADLINE_S, reaper=reaper,
    )
    result = outcome["result"]
    problems = list(outcome["leaks"])
    if outcome["timed_out"]:
        problems.append(f"deadline of {DEADLINE_S:.0f} s passed; run killed")
    elif result is None:
        problems.append(f"driver exited {outcome['returncode']} without a result")
    record = {
        "workload": name,
        "pass": "per_layer" if trace else "end_to_end",
        "seed": seed,
        "seconds": seconds,
        "wall_s": time.perf_counter() - t0,
        "problems": problems,
        "correct": False,
        "attempted": 0,
        "failed": 0,
        "metrics": {},
    }
    if result is not None:
        spans = result.pop("spans", None)
        record["metrics"] = _metric_table(result, trace)
        record["attempted"] = result["attempted"]
        record["failed"] = result["failed"]
        record["failures"] = result["failures"]
        record["rounds"] = result["rounds"]
        record["timed_s"] = result.get("timed_s")
        record["kind_seconds"] = result.get("kind_seconds")
        record["calib_ms"] = result.get("calib_ms")
        record["machine"] = {
            **result["machine"], "commit": _commit(), "seed": seed,
            "rounds": result["rounds"],
        }
        record["correct"] = not problems and result["failed"] == 0
        if spans is not None:
            write_json_atomic(os.path.join(out_dir, f"{name}.trace.json"), spans)
    suffix = ".layers.json" if trace else ".json"
    write_json_atomic(os.path.join(out_dir, name + suffix), record)
    return record


def _metric_table(result: dict, trace: bool) -> dict:
    """``{name: {"value", "unit", ...}}`` in registry order."""
    table = {}
    if trace:
        for m in PER_LAYER:
            table[m.name] = {"value": result["layers"][m.name], "unit": m.unit}
        return table
    attempted = max(result["attempted"], 1)
    scalars = {
        "relres_max": result["relres_max"],
        "factor_mem_mb": result["factor_mem_mb"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": (attempted - result["failed"]) / attempted,
    }
    for m in END_TO_END:
        if m.name in scalars:
            table[m.name] = {"value": scalars[m.name], "unit": m.unit}
        else:
            summary = result["metrics"][m.name]
            table[m.name] = {"value": summary["median"], "unit": m.unit, **summary}
    return table


def print_record(record: dict) -> None:
    """Every metric by name: unit, median, tail percentile, sample count."""
    head = f"{record['workload']} [{record['pass']}] seed {record['seed']}"
    if "rounds" in record:
        head += f", {record['rounds']} rounds, {record['wall_s']:.1f} s in all"
    print(head)
    for name, m in record["metrics"].items():
        line = f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6}"
        if m.get("tail_q") is not None:
            line += f" p{m['tail_q']} {m['tail']:.6g}"
        if "count" in m:
            line += f"  n={m['count']}  raw median {m['raw_median']:.6g}"
        print(line)
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed")
    for problem in record["problems"] + record.get("failures", []):
        print(f"  PROBLEM: {problem}")


def final_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


def run_suite(seed: int, seconds: float, reaper: Reaper, out_dir) -> list[dict]:
    """Both passes of every workload; end-to-end numbers come untraced."""
    records = []
    for wl in WORKLOADS:
        for trace in (False, True):
            record = run_pass(wl.name, seed, seconds, trace, reaper, out_dir)
            print_record(record)
            records.append(record)
    return records


# ----------------------------------------------------------------------
# --compare / --repeat-check
# ----------------------------------------------------------------------
def load_runs(directory: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per run]}`` of the end-to-end records."""
    values: dict[tuple[str, str], list[float]] = {}
    paths = glob.glob(os.path.join(directory, "*.json"))
    paths += glob.glob(os.path.join(directory, "*", "*.json"))
    for path in sorted(paths):
        with open(path) as fh:
            record = json.load(fh)
        if not isinstance(record, dict) or record.get("pass") != "end_to_end":
            continue
        for name, m in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(m["value"])
    return values


def compare(dir_a: str, dir_b: str) -> dict:
    """Apply the BENCHMARK.json bounds to runs of A (base) against B.

    A pair is ``regressed`` when B's median is worse than A's by more
    than its bound, ``unresolved`` when the spread of A's own runs is
    wider than the bound (unless every run of B beats every run of A),
    and ``within_bound`` otherwise. With fewer than four runs of A the
    spread is unknown and only the bound is applied.
    """
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    rows = []
    for wl in WORKLOADS:
        for m in END_TO_END:
            a, b = runs_a.get((wl.name, m.name)), runs_b.get((wl.name, m.name))
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if m.better == "lower" else -1.0
            worse_by = sign * (med_b - med_a) / med_a
            spread = quartile_spread(a) if len(a) >= 4 else None
            b_always_better = (
                max(b) < min(a) if m.better == "lower" else min(b) > max(a)
            )
            if worse_by > m.bound:
                verdict = "regressed"
            elif spread is not None and spread > m.bound and not b_always_better:
                verdict = "unresolved"
            else:
                verdict = "within_bound"
            rows.append({
                "workload": wl.name, "metric": m.name, "unit": m.unit,
                "a": med_a, "b": med_b, "worse_by": worse_by, "bound": m.bound,
                "spread_a": spread, "runs": [len(a), len(b)], "verdict": verdict,
            })
    return {"a": dir_a, "b": dir_b, "ok": all(r["verdict"] == "within_bound" for r in rows),
            "rows": rows}


def print_compare(report: dict) -> None:
    for row in report["rows"]:
        print(
            f"  {row['workload']:<20} {row['metric']:<16} {row['a']:>12.6g} -> "
            f"{row['b']:>12.6g} {row['unit']:<5} worse by {row['worse_by']:+.1%} "
            f"(bound {row['bound']:.1%})  {row['verdict']}"
        )


def repeat_check(seed: int, seconds: float, reaper: Reaper, out_dir) -> bool:
    """The suite twice; every pair must agree within its own bound."""
    dirs = [os.path.join(out_dir, f"repeat_{k}") for k in ("a", "b")]
    layer_runs = []
    ok = True
    for directory in dirs:
        records = run_suite(seed, seconds, reaper, directory)
        ok &= all(r["correct"] for r in records)
        layer_runs.append({
            (r["workload"], name): m["value"]
            for r in records if r["pass"] == "per_layer"
            for name, m in r["metrics"].items()
        })
    report = compare(*dirs)
    # exact counts must repeat exactly
    exact = [m.name for m in PER_LAYER if m.exact]
    report["exact_counts"] = [
        {"workload": wl.name, "metric": name,
         "a": layer_runs[0].get((wl.name, name)), "b": layer_runs[1].get((wl.name, name))}
        for wl in WORKLOADS for name in exact
    ]
    mismatched = [c for c in report["exact_counts"] if c["a"] != c["b"]]
    report["ok"] = bool(ok and report["ok"] and not mismatched)
    write_json_atomic(os.path.join(out_dir, "repeat_check.json"), report)
    print_compare(report)
    for c in mismatched:
        print(f"  COUNT DIFFERS: {c}")
    print("repeat-check:", "ok" if report["ok"] else "FAILED")
    return report["ok"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: the per-layer pass; 0: the end-to-end pass")
    parser.add_argument("--out", default=str(RESULTS_DIR),
                        help="directory of the result files")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice and compare the two")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories of result files")
    args = parser.parse_args(argv)

    if args.compare:
        report = compare(*args.compare)
        print_compare(report)
        return 0 if report["ok"] else 1
    try:
        return _run(args)
    except Terminated as signal_number:
        # the supervisor has already torn the workload down
        return 128 + int(signal_number.args[0])


def _run(args) -> int:
    with Reaper() as reaper:
        if args.repeat_check:
            return 0 if repeat_check(args.seed, args.seconds, reaper, args.out) else 1
        if args.workload is None:
            records = run_suite(args.seed, args.seconds, reaper, args.out)
            return 0 if all(r["correct"] for r in records) else 1
        record = run_pass(
            args.workload, args.seed, args.seconds, bool(args.trace), reaper, args.out
        )
        print_record(record)
        if not record["metrics"]:
            return 1  # no result: nothing to print as one
        print(final_line(record))
        return 0 if record["correct"] else 1
