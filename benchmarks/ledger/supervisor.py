"""Process hygiene: one session per workload, killed and checked.

Every workload driver is started with ``start_new_session=True``, so the
driver, its server, its rank-pool workers (daemon processes that would
survive a SIGKILLed parent) and multiprocessing's resource tracker all
carry one session id. :func:`run_supervised` kills that session and
waits in ``finally`` — on normal exit, on the deadline, on SIGTERM or
SIGINT — then checks that no process of the session is alive and that
``/dev/shm`` and the workload's temp dir are as found.

A SIGKILLed harness cannot run ``finally``. The reaper sidecar
(``python -m benchmarks.ledger.supervisor``, its own session) blocks on
a pipe from the harness; end-of-file with a workload still registered
means the harness died, and the sidecar does the same teardown and
exits.

Stdlib only: the sidecar must start in milliseconds.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SHM_DIR = "/dev/shm"
#: seconds teardown waits for a killed session to disappear from /proc
KILL_WAIT_S = 10.0
#: seconds a session may take to drain by itself after its driver exits
EXIT_GRACE_S = 3.0


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                # "pid (comm) state ppid pgrp session ..."; comm may hold spaces
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we were looking
        if fields[0] != b"Z" and int(fields[3]) == sid:
            out.append(int(entry))
    return out


def session_rss_mb(exclude: tuple[int, ...] = ()) -> float:
    """Sum of ``VmHWM`` (MiB) over the live processes of this session."""
    total_kb = 0
    for pid in session_pids(os.getsid(0)):
        if pid in exclude:
            continue
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_names() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _mapped_shm() -> set[str]:
    """Names under /dev/shm that some live process still maps."""
    mapped = set()
    prefix = SHM_DIR + "/"
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/maps") as fh:
                for line in fh:
                    at = line.find(prefix)
                    if at >= 0:
                        mapped.add(line[at + len(prefix):].split()[0])
        except OSError:
            continue
    return mapped


def teardown(sid: int, tmp: str, shm_before: list[str] | set[str]) -> dict:
    """Kill session ``sid``, then put /dev/shm and ``tmp`` back as found.

    Returns what had to be cleaned: ``survivors`` (pids that outlived
    :data:`KILL_WAIT_S`) and ``shm`` (blocks the session left behind).
    """
    deadline = time.monotonic() + KILL_WAIT_S
    pids = session_pids(sid)
    while pids and time.monotonic() < deadline:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)
        pids = session_pids(sid)
    # blocks created since the snapshot that nobody maps any more belong
    # to the session just killed; anything still mapped is someone else's
    leaked = sorted((shm_names() - set(shm_before)) - _mapped_shm())
    for name in leaked:
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
    shutil.rmtree(tmp, ignore_errors=True)
    return {"survivors": pids, "shm": leaked}


class Reaper:
    """Handle on the sidecar: register a workload, clear it when done."""

    def __init__(self) -> None:
        read_fd, write_fd = os.pipe()
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger.supervisor", str(read_fd)],
            cwd=REPO_ROOT,
            pass_fds=(read_fd,),
            start_new_session=True,
            stdin=subprocess.DEVNULL,
        )
        os.close(read_fd)
        self._pipe = os.fdopen(write_fd, "w")

    def _send(self, **message) -> None:
        self._pipe.write(json.dumps(message) + "\n")
        self._pipe.flush()

    def watch(self, sid: int, tmp: str, shm_before: set[str]) -> None:
        self._send(op="watch", sid=sid, tmp=tmp, shm=sorted(shm_before))

    def done(self, sid: int) -> None:
        self._send(op="done", sid=sid)

    def close(self) -> None:
        self._pipe.close()
        self._proc.wait()

    def __enter__(self) -> "Reaper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _reaper_main(read_fd: int) -> None:
    # the harness's death must not take the sidecar with it
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, signal.SIG_IGN)
    watched: dict[int, dict] = {}
    with os.fdopen(read_fd) as pipe:
        for line in pipe:
            message = json.loads(line)
            if message["op"] == "watch":
                watched[message["sid"]] = message
            else:
                watched.pop(message["sid"], None)
    for sid, message in watched.items():
        teardown(sid, message["tmp"], message["shm"])


class Terminated(BaseException):
    """SIGTERM/SIGINT arrived; unwinds through ``finally`` like an exit."""


def _raise_terminated(signum, _frame):
    raise Terminated(signum)


def run_supervised(
    argv: list[str],
    *,
    env: dict[str, str],
    tmp: str,
    result_path: str,
    deadline_s: float,
    reaper: Reaper,
) -> dict:
    """Run ``argv`` in its own session until it exits or the deadline.

    Returns ``{"returncode", "timed_out", "result", "leaks"}``:
    ``result`` is the JSON the driver wrote to ``result_path`` (``None``
    if it wrote none) and ``leaks`` lists what the driver left behind —
    processes, /dev/shm blocks, files in ``tmp`` — all of which are
    cleaned up here regardless. The session is torn down on every path
    out, including SIGTERM/SIGINT to this process.
    """
    shm_before = shm_names()
    handlers = {
        sig: signal.signal(sig, _raise_terminated)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    proc = None
    timed_out = False
    result = None
    leaks: list[str] = []
    try:
        # the driver's stdout goes to our stderr: our stdout carries
        # only the report and the final JSON line
        proc = subprocess.Popen(
            argv,
            cwd=REPO_ROOT,
            env=env,
            start_new_session=True,
            stdin=subprocess.DEVNULL,
            stdout=sys.stderr,
        )
        reaper.watch(proc.pid, tmp, shm_before)
        try:
            proc.wait(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            timed_out = True
        else:
            # the resource tracker exits by itself once the driver's
            # pipe closes; anything else still here was left running
            grace = time.monotonic() + EXIT_GRACE_S
            while session_pids(proc.pid) and time.monotonic() < grace:
                time.sleep(0.02)
            left = session_pids(proc.pid)
            if left:
                leaks.append(f"processes left running: {left}")
            try:
                with open(result_path) as fh:
                    result = json.load(fh)
                os.unlink(result_path)
            except (OSError, ValueError):
                pass
            extra = sorted(os.listdir(tmp)) if os.path.isdir(tmp) else []
            if extra:
                leaks.append(f"files left in the temp dir: {extra}")
    finally:
        if proc is not None:
            cleaned = teardown(proc.pid, tmp, shm_before)
            proc.wait()
            reaper.done(proc.pid)
            if cleaned["survivors"]:
                leaks.append(f"processes survived SIGKILL: {cleaned['survivors']}")
            if cleaned["shm"] and not timed_out:
                leaks.append(f"/dev/shm blocks left behind: {cleaned['shm']}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    return {
        "returncode": proc.returncode,
        "timed_out": timed_out,
        "result": result,
        "leaks": leaks,
    }


if __name__ == "__main__":
    _reaper_main(int(sys.argv[1]))
