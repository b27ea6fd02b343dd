"""Server launcher: ``SolveService`` behind ``make_server``, tied to stdin.

``python -m benchmarks.ledger.server_main`` reads its configuration from
the ``REPRO_*`` environment (cache budget, store dir), binds a free
port, prints ``port <n>`` and serves until standard input reaches
end-of-file — which happens when the load generator closes the pipe or
dies — then closes the service and every rank pool and exits.
"""

from __future__ import annotations

import sys
import threading


def main() -> None:
    from repro.service import SolveService
    from repro.service.http import make_server
    from repro.vmpi import shutdown_all_pools

    service = SolveService()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        print(f"port {server.server_address[1]}", flush=True)
        sys.stdin.buffer.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        service.close()
        shutdown_all_pools()


if __name__ == "__main__":
    main()
