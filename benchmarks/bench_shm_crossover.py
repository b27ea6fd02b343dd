"""One-off: where does one shared-memory segment beat the pickle stream?

``REPRO_VMPI_SHM_MIN_BYTES`` decides per array whether it rides the
message's pickle stream or its shared-memory segment. This script
measures the message-level crossover behind the default: rank 0 sends
one float64 array of ``S`` bytes to rank 1, which reads every element
and answers with an 8-byte acknowledgement; the round trip is timed on
rank 0 with the array forced in-band (threshold above ``S``) and forced
into a segment (threshold 0), on two rank processes.

    PYTHONPATH=src python benchmarks/bench_shm_crossover.py

Prints one row per size: median round trip in microseconds for both
settings, and their ratio.
"""

import statistics
import time

import numpy as np

from repro.vmpi import ProcessBackend, run_spmd

SIZES = [256, 1024, 2048, 4096, 8192, 16384, 65536, 262144, 1048576]
REPS = 300


def _pingpong(comm, sizes, reps):
    out = {}
    for size in sizes:
        data = np.arange(size // 8, dtype=np.float64)
        samples = []
        for rep in range(reps + 20):
            if comm.rank == 0:
                t0 = time.perf_counter()
                comm.send(data, 1, tag=1)
                comm.recv(1, tag=2)
                if rep >= 20:  # warm-up dropped
                    samples.append(time.perf_counter() - t0)
            else:
                got = comm.recv(0, tag=1)
                comm.send(float(got.sum()), 0, tag=2)
        out[size] = statistics.median(samples) if samples else None
    return out


def main() -> None:
    rows = {}
    for label, threshold in (("in-band", 1 << 40), ("segment", 0)):
        backend = ProcessBackend(min_shm_bytes=threshold)
        rows[label] = run_spmd(2, _pingpong, SIZES, REPS, backend=backend).results[0]
    print(f"{'bytes':>9} {'in-band us':>11} {'segment us':>11} {'segment/in-band':>16}")
    for size in SIZES:
        a, b = rows["in-band"][size], rows["segment"][size]
        print(f"{size:>9} {1e6 * a:>11.1f} {1e6 * b:>11.1f} {b / a:>16.2f}")


if __name__ == "__main__":
    main()
