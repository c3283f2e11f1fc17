"""Mapping-as-a-service: the detection→mapping pipeline behind HTTP.

The paper's end product is a function — communication matrix in,
Edmonds-based hierarchical mapping out — and online mapping only pays
off when that function is cheap and amortized.  This package wraps the
solver in a long-lived, stdlib-only asyncio service so many clients can
query it repeatedly:

* :mod:`repro.service.canonical` — permutation-stable matrix
  normalization and hashing (feeds the config-hash machinery in
  :mod:`repro.experiments.cache`).
* :mod:`repro.service.cache` — LRU + TTL in-memory result cache.
* :mod:`repro.service.batcher` — single-flight batcher that dispatches
  cache misses to the process pool whenever a pool slot is idle.
* :mod:`repro.service.worker` — the picklable solve entrypoints that
  run inside pool workers (and, for small solves, on the loop).
* :mod:`repro.service.app` — :class:`MappingService`, the pipeline:
  validate → canonicalize → cache → batch → solve → render.
* :mod:`repro.service.http` — minimal asyncio HTTP/1.1 front end
  (``POST /map``, ``GET /healthz``, ``GET /metrics``) with bounded-queue
  backpressure (429 + ``Retry-After``) and graceful SIGTERM drain.
* :mod:`repro.service.client` — stdlib async client with keep-alive.
* :mod:`repro.service.smoke` — boot/round-trip/shutdown smoke check
  (``make serve-smoke``).

Service invariants (see DESIGN.md §10): identical request bodies yield
byte-identical responses; N concurrent identical requests cost exactly
one solve; loop-side work is bounded — canonicalization, plus solves of
at most 16 threads while the pool is busy — and the loop never runs
blocking IO code (enforced statically by lint rule RPL006).
"""

from repro.service.app import MappingService, ServiceConfig
from repro.service.client import AsyncMappingClient, ServiceError, ServiceOverloaded
from repro.service.http import MappingServer

__all__ = [
    "MappingService",
    "ServiceConfig",
    "MappingServer",
    "AsyncMappingClient",
    "ServiceError",
    "ServiceOverloaded",
]
