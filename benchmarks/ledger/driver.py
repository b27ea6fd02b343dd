"""Entry point of the process that runs one pass of one workload.

Started by the harness in a session of its own
(``python -m benchmarks.ledger.driver``); writes its result as JSON to
``--out`` and exits. Everything it starts — server, rank pool, set-up
probes — it stops itself; the supervisor only checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

from .spec import WORKLOAD_BY_NAME


def machine_block() -> dict:
    """What the numbers were measured on (the parts that need imports)."""
    import numpy
    import scipy
    from repro.vmpi import effective_cpu_count

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "cpu_model": model,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    wl = WORKLOAD_BY_NAME[args.workload]
    if wl.driver == "http":
        from . import httpload as module
    else:
        from . import inproc as module
    result = module.run(wl, args.seed, args.seconds, bool(args.trace), args.tmp)
    result["machine"] = machine_block()
    with open(args.out + ".part", "w") as fh:
        json.dump(result, fh)
    os.replace(args.out + ".part", args.out)


if __name__ == "__main__":
    main()
