"""Serving subsystem: amortize factorizations across concurrent callers.

The paper's core economic argument (Sec. I-A) — an expensive one-time
factorization buys arbitrarily many cheap solves — is the shape of a
*serving* workload: many users, few distinct operators, streams of
right-hand sides. This package turns the facade into that system:

* :class:`~repro.service.service.SolveService` — thread-safe request
  front (``submit`` futures / blocking ``solve`` / asyncio ``asolve``).
* :class:`~repro.service.cache.FactorizationCache` — fingerprint-keyed,
  single-flight, LRU-with-byte-budget factorization sharing; pins the
  rank pools behind process-execution entries.
* :class:`~repro.service.batcher.RhsBatcher` — coalesces concurrent
  direct solves against one factorization into block applies; a lone
  request solves at once.
* :class:`~repro.service.stats.ServiceStats` — hit rate, batch
  occupancy, latency percentiles, resident bytes.
* :mod:`repro.service.http` — a stdlib JSON endpoint over a service
  (see ``examples/serve.py``).

Quickstart::

    import repro
    from repro.service import SolveService

    prob = repro.LaplaceVolumeProblem(m=64)
    with SolveService() as service:
        futures = [service.submit(prob, prob.random_rhs(i)) for i in range(64)]
        xs = [f.result().x for f in futures]     # one factorization total
        print(service.stats().hit_rate)          # ~63/64
"""

from repro.service.batcher import RhsBatcher
from repro.service.cache import CacheLookup, FactorizationCache
from repro.service.service import (
    ServiceConfig,
    ServiceOverloadedError,
    SolveService,
)
from repro.service.stats import ServiceStats, StatsCollector

__all__ = [
    "SolveService",
    "ServiceConfig",
    "ServiceOverloadedError",
    "FactorizationCache",
    "CacheLookup",
    "RhsBatcher",
    "ServiceStats",
    "StatsCollector",
]
