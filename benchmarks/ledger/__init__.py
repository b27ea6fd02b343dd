"""Perf ledger: the one committed harness behind ``BENCHMARK.json``.

``python -m benchmarks.ledger`` from the repo root runs four workloads,
checks every output and prints every metric by name; see ``README.md``
next to this file. Importing the package starts nothing and imports no
third-party module, so the reaper sidecar and the self-check stay cheap.
"""
