"""Serve solves over HTTP and hammer the endpoint with a load generator.

Three modes:

* default (no flags) — self-contained demo: starts the JSON endpoint on
  a free port, runs the load generator against it, prints the
  per-request latency and the service's own metrics, and exits (this is
  what CI smokes).
* ``--serve`` — run the endpoint in the foreground (Ctrl-C to stop)::

      PYTHONPATH=src python examples/serve.py --serve --port 8000

* ``--client URL`` — load-generate against an already-running server::

      PYTHONPATH=src python examples/serve.py --client http://127.0.0.1:8000

The workload mimics a serving mix: ``--problems`` distinct operators
(grid sizes m, m+4, ...), ``--threads`` concurrent clients, and
``--requests`` total solves with rotating right-hand-side seeds — so
the factorization cache, the single-flight lock, and the rhs batcher
all see real concurrency. Tune the service's cache bytes and batch
window with the ``REPRO_SERVICE_*`` environment knobs.

**Warm restarts.** Point ``--store`` (or ``REPRO_STORE_DIR``) at a
directory and factorizations outlive the process: entries are published
to the cross-process shared tier while the server runs and spilled to
checksummed warm-start files on shutdown (SIGTERM/Ctrl-C both shut down
cleanly). A restarted server loads them instead of refactoring::

    PYTHONPATH=src python examples/serve.py --serve --port 8000 --store /tmp/repro-store
    # ... solve some problems, then kill -TERM the server ...
    PYTHONPATH=src python examples/serve.py --serve --port 8000 --store /tmp/repro-store
    # same requests now show store_hits_disk > 0, factorizations == 0
    # (GET /stats, or repro_store_hits_total on GET /metrics)

Two servers sharing one ``--store`` on one machine attach each other's
factorizations zero-copy through ``/dev/shm`` instead of each building
their own.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from http.client import HTTPConnection
from urllib.parse import urlparse

from repro.service import SolveService
from repro.service.http import make_server


def load_generate(
    host: str, port: int, *, requests: int, threads: int, m: int, problems: int
) -> dict:
    """Fire ``requests`` solves from ``threads`` concurrent clients."""
    latencies: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()
    counter = {"next": 0}

    def worker() -> None:
        conn = HTTPConnection(host, port, timeout=300)
        try:
            while True:
                with lock:
                    i = counter["next"]
                    if i >= requests:
                        return
                    counter["next"] += 1
                body = json.dumps(
                    {
                        "problem": {
                            "type": "laplace_volume",
                            "m": m + 4 * (i % problems),
                        },
                        "rhs": {"seed": i},
                        "relres": False,
                    }
                )
                t0 = time.perf_counter()
                conn.request(
                    "POST", "/solve", body, {"Content-Type": "application/json"}
                )
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                dt = time.perf_counter() - t0
                with lock:
                    if resp.status == 200:
                        latencies.append(dt)
                    else:
                        errors.append(payload.get("error", f"HTTP {resp.status}"))
        finally:
            conn.close()

    t_start = time.perf_counter()
    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    wall = time.perf_counter() - t_start

    latencies.sort()
    pick = lambda q: latencies[int(q * (len(latencies) - 1))] if latencies else None  # noqa: E731
    return {
        "ok": len(latencies),
        "errors": errors,
        "wall_s": wall,
        "throughput_rps": len(latencies) / wall if wall else 0.0,
        "p50_s": pick(0.50),
        "p95_s": pick(0.95),
    }


def fetch_stats(host: str, port: int) -> dict:
    conn = HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=0, help="0 picks a free port")
    ap.add_argument("--serve", action="store_true", help="serve in the foreground")
    ap.add_argument("--client", metavar="URL", help="load-generate against URL")
    ap.add_argument("--requests", type=int, default=32, help="total solve requests")
    ap.add_argument("--threads", type=int, default=8, help="concurrent clients")
    ap.add_argument("--m", type=int, default=24, help="base grid side (N = m^2)")
    ap.add_argument("--problems", type=int, default=2, help="distinct operators")
    ap.add_argument(
        "--store",
        metavar="DIR",
        help="resident-store root: publish/attach shared entries and "
        "spill warm-start files here (default: REPRO_STORE_DIR)",
    )
    args = ap.parse_args()

    if args.client:
        url = urlparse(args.client)
        host, port = url.hostname or "127.0.0.1", url.port or 8000
        result = load_generate(
            host,
            port,
            requests=args.requests,
            threads=args.threads,
            m=args.m,
            problems=args.problems,
        )
        print(json.dumps({"load": result, "stats": fetch_stats(host, port)}, indent=2))
        return

    service = SolveService(**({"store_dir": args.store} if args.store else {}))
    server = make_server(service, args.host, args.port or (8000 if args.serve else 0))
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}  (POST /solve, GET /stats, GET /healthz)")

    if args.serve:
        # SIGTERM shuts down as cleanly as Ctrl-C: the service close
        # spills cached factorizations to the store for a warm restart
        import signal

        def _terminate(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _terminate)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            service.close()
        return

    # self-contained demo: server thread + embedded load generator
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        result = load_generate(
            host,
            port,
            requests=args.requests,
            threads=args.threads,
            m=args.m,
            problems=args.problems,
        )
        if result["errors"]:  # diagnose before any summary formatting
            raise SystemExit(f"load generator saw errors: {result['errors'][:3]}")
        stats = service.stats()
        ms = lambda v: f"{1e3 * v:.1f}ms" if v is not None else "n/a"  # noqa: E731
        print(
            f"{result['ok']}/{args.requests} ok in {result['wall_s']:.2f}s "
            f"({result['throughput_rps']:.1f} req/s), "
            f"client p50 {ms(result['p50_s'])} p95 {ms(result['p95_s'])}"
        )
        print(
            f"cache: {stats.factorizations} factorizations for "
            f"{stats.requests} requests (hit rate {stats.hit_rate:.0%}), "
            f"{stats.bytes_resident / 1e6:.1f} MB resident; "
            f"batches: mean occupancy {stats.mean_batch_occupancy:.2f} "
            f"(max {stats.max_batch_occupancy}); "
            f"service p50 {ms(stats.p50_latency_s)} p95 {ms(stats.p95_latency_s)}"
        )
        if stats.factorizations > args.problems:
            raise SystemExit(
                f"cache failed to amortize: {stats.factorizations} factorizations "
                f"for {args.problems} distinct operators"
            )
    finally:
        server.shutdown()
        server.server_close()
        service.close()


if __name__ == "__main__":
    main()
