"""Fresh interpreter to ready, once: what ``setup_s`` times.

``python -m benchmarks.ledger.probe <workload>`` imports ``repro``,
builds the workload's problem and, for a distributed workload, makes the
first no-op SPMD dispatch (which spawns the rank pool); it then prints
``ready``, shuts the pool down and exits. :class:`ProbeLaunch` is
the parent's side: spawn to ``ready``.
"""

from __future__ import annotations

import subprocess
import sys


def noop(comm) -> int:
    """The SPMD function of the no-op dispatch (importable by rank workers)."""
    return comm.rank


class ProbeLaunch:
    """Spawn ``argv`` and block until its ``ready`` line: the timed part.

    :meth:`wait_exit` (untimed) lets the probe shut down and checks it did.
    """

    def __init__(self, argv: list[str], env: dict[str, str], cwd) -> None:
        self._proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        self._line = self._proc.stdout.readline()

    def wait_exit(self) -> None:
        with self._proc:
            self._proc.stdout.read()
        if self._line.strip() != "ready" or self._proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed: {self._line!r}, exit {self._proc.returncode}"
            )


def main(workload_name: str) -> None:
    from repro.service.http import build_problem
    from repro.vmpi import run_spmd, shutdown_all_pools

    from .spec import WORKLOAD_BY_NAME

    wl = WORKLOAD_BY_NAME[workload_name]
    build_problem(wl.problem)
    if wl.execution == "process":
        run_spmd(wl.ranks, noop, backend="process")
    print("ready", flush=True)
    shutdown_all_pools()


if __name__ == "__main__":
    main(sys.argv[1])
