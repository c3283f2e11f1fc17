"""The cluster front end: consistent-hash routing over supervised shards.

:class:`ClusterRouter` is the app behind ``repro route``.  It duck-types
the surface :class:`~repro.service.http.MappingServer` drives (config /
metrics / clock / ``start`` / ``aclose``), so :class:`RouterServer` is
the same battle-tested HTTP loop with only the routing table swapped.

Request path for ``POST /map``:

1. **Tenant admission** — token bucket per ``X-Tenant`` header
   (:mod:`repro.cluster.quota`); exhaustion is ``429`` + ``Retry-After``
   before any routing work is spent.
2. **Canonical routing key** — the router parses the body with the
   shard's own :func:`~repro.service.app.parse_map_body` and
   canonicalizes it with the *same* :mod:`repro.service.canonical`
   code, so permutation-equivalent requests hash to the same ring
   position and land on the shard whose caches are already warm.  A
   bounded body→key cache makes repeats a dict lookup; a body the
   parser rejects falls back to a body-hash key (the shard answers the
   400 — validation stays single-sourced).
3. **Router answer** — the first ``200`` a shard gives for a body is kept
   in that body's route-cache entry, and an exact repeat of the bytes is
   answered from it (``X-Repro-Cache: body``, ``X-Repro-Shard`` naming
   the shard that produced the bytes) with no forward.  A 200 ``/map``
   answer is a pure function of the body bytes, so the replay is what
   the shard itself would send.  Errors, ``/map/delta`` and
   ``/cache/push`` always reach a shard.
4. **Forward via the ring** — the first live shard in
   :meth:`~repro.cluster.ring.HashRing.lookup_chain` order gets the
   request over a pooled keep-alive client.  A dead shard (refused /
   reset connection, or an injected ``crash`` at
   :data:`~repro.faults.plan.SITE_CLUSTER_FORWARD`) is marked down,
   scheduled for restart, and the request re-routes to the next shard —
   the client sees one answer either way, byte-identical because shard
   responses are pure functions of the body.
5. **Replication** — a forwarded ``/map`` answered ``X-Repro-Cache:
   miss`` is a cold solve the rest of the cluster does not have: the
   router retains it in its :class:`~repro.cluster.replica.ReplicaStore`
   and pushes it to every sibling (seeded-deterministic fan-out order)
   so the next request for any permutation of that matrix is warm on
   every shard.  Restarted shards get the whole store replayed before
   rejoining.

``POST /map/delta`` routes on the request's ``base_key`` — the delta
follows the shard that holds (or was pushed) its base matrix, keeping
online-remap sessions affine under sharding and across ring changes.

``GET /healthz`` reports ``ok`` / ``degraded`` plus per-shard states;
``GET /metrics`` aggregates every live shard's integer counters under
their ``repro_service_`` names and appends the router's own
``repro_cluster_`` registry (including per-tenant counters);
``GET /ring`` exposes the membership snapshot smart clients use to
drive shards directly.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.quota import DEFAULT_TENANT, TenantQuotas
from repro.cluster.replica import ReplicaEntry, ReplicaStore, render_push
from repro.cluster.ring import HashRing
from repro.cluster.shards import (
    ShardSupervisor,
    SubprocessShardSupervisor,
)
from repro.faults.injector import InjectedCrash, get_injector
from repro.faults.plan import SITE_CLUSTER_FORWARD
from repro.obs.context import TRACE_HEADER, TraceContext
from repro.obs.export import chrome_trace, render_chrome_json
from repro.obs.metrics import MetricsRegistry, Row, parse_exposition
from repro.obs.stitch import stitch_cluster_trace
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.app import BadRequest, Response, _error_body, parse_map_body
from repro.service.cache import LRUTTLCache
from repro.service.canonical import canonical_form, canonical_key
from repro.service.client import AsyncMappingClient
from repro.service.http import MappingServer, _Request
from repro.util.rng import derive_seed

_JSON_SEPARATORS = (",", ":")

#: Transport failures that mean "this shard is gone, re-route".
_SHARD_DEAD_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
    asyncio.IncompleteReadError,
)


def _map_body_key(body: bytes) -> str:
    """Route-cache key of a ``/map`` body (disjoint from delta keys)."""
    return "map\x00" + hashlib.sha256(body).hexdigest()


@dataclass(frozen=True)
class RouterConfig:
    """Tunables for one router instance (all read at start-up)."""

    host: str = "127.0.0.1"
    port: int = 8797
    #: Shard subprocesses to spawn and supervise.
    shards: int = 2
    #: Virtual nodes per shard on the hash ring.
    vnodes: int = 64
    #: Solver pool size handed to each shard (0 = in-process thread).
    workers_per_shard: int = 1
    #: Cache sizing forwarded to each shard.
    cache_entries: int = 4096
    cache_ttl: float = 300.0
    max_body_bytes: int = 8 * 1024 * 1024
    #: Seconds the router waits for in-flight requests on shutdown.
    drain_timeout: float = 10.0
    #: Per-tenant admission rate in requests/second (<= 0 disables).
    quota_rate: float = 0.0
    #: Bucket depth; 0 defaults to one second's worth of tokens.
    quota_burst: float = 0.0
    #: Distinct tenants tracked before LRU eviction.
    quota_max_tenants: int = 1024
    #: Replicated solves retained for fan-out and restart replay.
    replica_entries: int = 4096
    #: Body→routing-key cache entries; an entry also keeps the body's
    #: first 200 ``/map`` answer, so this bounds router answers too.
    route_cache_entries: int = 4096
    #: Same thread/core ceilings the shards enforce; the router skips
    #: canonicalizing bodies that would be rejected anyway.
    max_threads: int = 256
    max_cores: int = 1024
    #: Seed anchoring the deterministic replication fan-out order.
    seed: int = 0
    #: Automatically restart shards that die (replaying the replica
    #: store into the replacement); disable for kill-only tests.
    restart_dead_shards: bool = True
    #: Router span-ring capacity (0 disables router tracing).
    trace_ring: int = 65536
    #: Deterministic 1-in-N span sampling (1 keeps everything).
    trace_sample_every: int = 1
    #: Use the tracer's deterministic step clock instead of the injected
    #: monotonic clock — trades real latencies for byte-identical
    #: ``GET /trace`` exports; forwarded to every spawned shard.
    trace_step_clock: bool = False


def _stage_count(stage: str) -> Callable[["ClusterRouter"], int]:
    return lambda router: router.tracer.stage_counts.get(stage, 0)


#: The ``repro_cluster_`` rows of ``GET /metrics``, in render order.  A
#: row with a source is read from the router at render time; the rest
#: are counted by the routing code and the HTTP layer.  The per-tenant
#: families render after them, in first-use order.
_METRIC_ROWS: Tuple[Row, ...] = (
    ("requests_total", "counter", None),
    ("routed_total", "counter", None),
    ("reroutes_total", "counter", None),
    ("unroutable_total", "counter", None),
    ("quota_throttled_total", "counter", None),
    ("shard_down_total", "counter", None),
    ("shard_kills_total", "counter", None),
    ("shard_restarts_total", "counter", None),
    ("restart_failures_total", "counter", None),
    ("replication_publish_total", "counter", None),
    ("replication_push_total", "counter", None),
    ("replication_push_failures_total", "counter", None),
    ("replication_replay_total", "counter", None),
    ("faults_injected_total", "counter", lambda _r: get_injector().fired_total()),
    ("http_errors_total", "counter", None),
    ("connection_resets_total", "counter", None),
    ("shards_up", "gauge", lambda r: len(r._endpoints) - len(r._down)),
    ("inflight", "gauge", None),
    ("trace_spans_total", "counter", lambda r: r.tracer.started_total),
    ("trace_sampled_out_total", "counter", lambda r: r.tracer.sampled_out_total),
    ("trace_stage_route_total", "counter", _stage_count("route")),
    ("trace_stage_ring_lookup_total", "counter", _stage_count("ring.lookup")),
    ("trace_stage_forward_total", "counter", _stage_count("forward")),
    ("trace_stage_replicate_total", "counter", _stage_count("replicate")),
    # /map repeats answered at the router without a forward.
    ("body_cache_hits_total", "counter", None),
    # Routed-request latency, observed by the HTTP layer.
    ("latency_ms", "histogram", None),
    ("latency_p50_ms", "gauge", lambda r: r.metrics.quantile("latency_ms", 0.50)),
    ("latency_p99_ms", "gauge", lambda r: r.metrics.quantile("latency_ms", 0.99)),
)

#: Distinct tenant label values tracked before folding into ``~other``
#: (label-cardinality guard on the exposition).
_MAX_TENANT_LABELS = 256


@dataclass(frozen=True)
class _RouteInfo:
    """Routing decision for one body: key plus publishable canon data.

    Once a forward of the body comes back 200, the entry is replaced by
    an *answered* one holding only the key, the answer bytes and the
    shard that produced them: such a body is never forwarded or
    published again, so its canon data is dropped.
    """

    key: str
    #: None when the body could not be canonicalized router-side (the
    #: shard will answer the 400; nothing will be published), and on
    #: an answered entry.
    canon_hex: Optional[str] = None
    n: int = 0
    spec: Tuple[int, int, int] = (0, 0, 0)
    #: The body's first 200 ``/map`` answer, and the shard that sent it.
    answer: Optional[bytes] = None
    shard: str = ""


class _ShardClientPool:
    """Free-list of keep-alive clients for one shard incarnation.

    One :class:`AsyncMappingClient` serves one request at a time (the
    wire protocol is strictly request→response on a single socket), so
    concurrent forwards each acquire their own client; released clients
    are reused by later requests.  All bookkeeping is synchronous — no
    await between check and act (RPL102).
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._free: List[AsyncMappingClient] = []

    def acquire(self) -> AsyncMappingClient:
        if self._free:
            return self._free.pop()
        return AsyncMappingClient(self.host, self.port)

    def release(self, client: AsyncMappingClient) -> None:
        self._free.append(client)

    async def close(self) -> None:
        free, self._free = self._free, []
        for client in free:
            await client.close()


class ClusterRouter:
    """The sharded front-end app (see module docstring)."""

    def __init__(
        self,
        config: Optional[RouterConfig] = None,
        supervisor: Optional[ShardSupervisor] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or RouterConfig()
        self.clock = clock
        cfg = self.config
        #: ``GET /metrics`` router rows: :data:`_METRIC_ROWS` plus the
        #: per-tenant families.
        self.metrics = MetricsRegistry("repro_cluster_").declare(_METRIC_ROWS, self)
        self._tenant_labels: Set[str] = set()
        #: Router-side span ring; ``trace_step_clock`` swaps the injected
        #: monotonic clock for the deterministic step counter so two runs
        #: of one plan export byte-identical stitched traces.
        self.tracer: Tracer
        if cfg.trace_ring > 0:
            self.tracer = Tracer(
                trace_id="router",
                wall_clock=None if cfg.trace_step_clock else clock,
                capacity=cfg.trace_ring,
                sample_every=cfg.trace_sample_every,
            )
        else:
            self.tracer = NULL_TRACER
        self.ring = HashRing(vnodes=cfg.vnodes)
        self.quotas = TenantQuotas(
            rate=cfg.quota_rate,
            burst=cfg.quota_burst,
            clock=clock,
            max_tenants=cfg.quota_max_tenants,
        )
        self.replicas = ReplicaStore(max_entries=cfg.replica_entries)
        self.supervisor: ShardSupervisor = supervisor or SubprocessShardSupervisor(
            shards=cfg.shards,
            host=cfg.host,
            workers_per_shard=cfg.workers_per_shard,
            cache_entries=cfg.cache_entries,
            cache_ttl=cfg.cache_ttl,
            clock=clock,
            trace_sample_every=cfg.trace_sample_every,
            trace_step_clock=cfg.trace_step_clock,
        )
        self._endpoints: Dict[str, Tuple[str, int]] = {}
        self._pools: Dict[str, _ShardClientPool] = {}
        self._down: Set[str] = set()
        self._restarting: Set[str] = set()
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._route_cache: LRUTTLCache[_RouteInfo] = LRUTTLCache(
            cfg.route_cache_entries, cfg.cache_ttl, clock
        )
        self._closing = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Boot every shard and build the ring (idempotent)."""
        # Claim the start synchronously: a second start() arriving while
        # the supervisor is still booting must not spawn a second fleet.
        if self._started:
            return
        self._started = True
        self._endpoints = await self.supervisor.start_all()
        for shard_id in sorted(self._endpoints):
            self.ring.add(shard_id)

    async def aclose(self) -> None:
        """Cancel restarts, close client pools, stop every shard."""
        self._closing = True
        tasks, self._tasks = set(self._tasks), set()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        pools, self._pools = dict(self._pools), {}
        for pool in pools.values():
            await pool.close()
        await self.supervisor.stop_all()

    # -- shard I/O ---------------------------------------------------------------

    def _pool(self, shard_id: str) -> _ShardClientPool:
        pool = self._pools.get(shard_id)
        if pool is None:
            host, port = self._endpoints[shard_id]
            pool = self._pools[shard_id] = _ShardClientPool(host, port)
        return pool

    async def _shard_request(
        self,
        shard_id: str,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One pooled round trip to ``shard_id``; dead clients are dropped."""
        pool = self._pool(shard_id)
        client = pool.acquire()
        try:
            result = await client.request(method, path, body, headers=headers)
        except BaseException:
            await client.close()
            raise
        if self._pools.get(shard_id) is pool:
            pool.release(client)
        else:
            # The shard died and restarted while this exchange was in
            # flight; its pool was replaced, so retire the old socket.
            await client.close()
        return result

    async def _shard_died(self, shard_id: str, kill: bool) -> None:
        """Mark a shard down and (optionally) schedule its replacement."""
        if kill:
            await self.supervisor.kill(shard_id)
        if shard_id in self._down:
            return
        self._down.add(shard_id)
        self.metrics.inc("shard_down_total")
        pool = self._pools.pop(shard_id, None)
        if pool is not None:
            await pool.close()
        if (
            self.config.restart_dead_shards
            and not self._closing
            and shard_id not in self._restarting
        ):
            self._restarting.add(shard_id)
            task = asyncio.create_task(self._restart_shard(shard_id))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _restart_shard(self, shard_id: str) -> None:
        """Boot a replacement, replay the replica store, rejoin the ring."""
        try:
            try:
                endpoint = await self.supervisor.restart(shard_id)
            except (OSError, RuntimeError, asyncio.CancelledError):
                self.metrics.inc("restart_failures_total")
                return
            self._endpoints[shard_id] = endpoint
            entries = self.replicas.entries()
            if entries:
                try:
                    status, _, _ = await self._shard_request(
                        shard_id, "POST", "/cache/push", render_push(entries)
                    )
                except _SHARD_DEAD_ERRORS + (OSError,):
                    status = 0
                if status == 200:
                    self.metrics.inc("replication_replay_total", len(entries))
                else:
                    self.metrics.inc("replication_push_failures_total")
            self._down.discard(shard_id)
            self.metrics.inc("shard_restarts_total")
        finally:
            self._restarting.discard(shard_id)

    # -- routing -----------------------------------------------------------------

    def _map_route_info(self, body: bytes, body_key: str = "") -> _RouteInfo:
        """Routing key (and publishable canon data) for a /map body.

        ``body_key`` is the body's route-cache key when the caller has
        it already (see :func:`_map_body_key`).
        """
        body_key = body_key or _map_body_key(body)
        cached = self._route_cache.get(body_key)
        if cached is not None:
            return cached
        info = self._canonicalize(body)
        if info is None:
            info = _RouteInfo(key="body:" + body_key)
        self._route_cache.put(body_key, info)
        return info

    def _canonicalize(self, body: bytes) -> Optional[_RouteInfo]:
        """The shard's own parse, then its canonical key; None for a 400 body.

        :func:`~repro.service.app.parse_map_body` and the shard's
        :mod:`repro.service.canonical` code give the key the shard will
        answer with — also for asymmetric bodies, a non-zero diagonal or
        signed zeros.  A body the shard rejects routes by its hash, and
        the shard produces the authoritative 400.
        """
        cfg = self.config
        try:
            matrix, spec = parse_map_body(
                body, cfg.max_threads, cfg.max_cores
            )
        except BadRequest:
            return None
        canon, _perm = canonical_form(matrix)
        key = canonical_key(canon, spec)
        n = int(matrix.shape[0])
        return _RouteInfo(key=key, canon_hex=canon.tobytes().hex(), n=n, spec=spec)

    def _keep_answer(
        self, body_key: str, route: _RouteInfo, raw: bytes, shard_id: str
    ) -> None:
        """Answer later repeats of a body from its first 200 ``/map``.

        ``route`` was read before the forward's awaits and may be stale
        by now: a concurrent request for the same body may have kept its
        answer already, or the entry may have been evicted or expired.
        Replace the entry only while it is still ``route`` — checked and
        put with no await between them — so the first writer wins and
        its TTL window is not restarted.
        """
        if self._route_cache.peek(body_key) is route:
            self._route_cache.put(
                body_key, _RouteInfo(key=route.key, answer=raw, shard=shard_id)
            )

    def _delta_route_key(self, body: bytes) -> str:
        """Routing key for a /map/delta body: its ``base_key`` field."""
        body_key = "delta\x00" + hashlib.sha256(body).hexdigest()
        cached = self._route_cache.get(body_key)
        if cached is not None:
            return cached.key
        try:
            doc = json.loads(body.decode("utf-8"))
            base_key = doc.get("base_key") if isinstance(doc, dict) else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            base_key = None
        key = base_key if isinstance(base_key, str) and base_key else (
            "body:" + body_key
        )
        self._route_cache.put(body_key, _RouteInfo(key=key))
        return key

    async def _forward(
        self, path: str, body: bytes, route_key: str, parent: int = 0
    ) -> Tuple[Optional[int], Dict[str, str], bytes, Optional[str]]:
        """Send ``body`` to the ring's preferred live shard, failing over.

        Returns ``(status, headers, raw, shard_id)``; status None means
        no shard could be reached.  An injected crash at
        :data:`SITE_CLUSTER_FORWARD` kills the *target* shard before the
        forward, exercising the death→re-route path deterministically.

        Each attempt gets its own ``forward`` span under ``parent``; the
        span's id travels to the shard in the ``X-Repro-Trace`` header so
        the shard's request subtree can be stitched back under it.
        """
        tracer = self.tracer
        injector = get_injector()
        attempt = 0
        for shard_id in self.ring.lookup_chain(route_key):
            if shard_id in self._down:
                continue
            attempt += 1
            if attempt > 1:
                self.metrics.inc("reroutes_total")
            try:
                await injector.afire(SITE_CLUSTER_FORWARD)
            except InjectedCrash:
                self.metrics.inc("shard_kills_total")
                await self._shard_died(shard_id, kill=True)
                continue
            span = tracer.begin(
                "forward",
                cat="cluster.stage",
                parent=parent,
                args={"shard": shard_id, "attempt": attempt},
                nest=False,
            )
            trace_headers: Optional[Dict[str, str]] = None
            if span.span_id > 0:
                ctx = TraceContext(
                    trace_id=tracer.trace_id, parent_span_id=span.span_id
                )
                trace_headers = {TRACE_HEADER: ctx.to_header()}
            try:
                status, headers, raw = await self._shard_request(
                    shard_id, "POST", path, body, headers=trace_headers
                )
            except _SHARD_DEAD_ERRORS:
                tracer.end(span, args={"status": 0})
                await self._shard_died(shard_id, kill=False)
                continue
            tracer.end(span, args={"status": status})
            self.metrics.inc("routed_total")
            return status, headers, raw, shard_id
        self.metrics.inc("unroutable_total")
        return None, {}, b"", None

    # -- request handling --------------------------------------------------------

    def _count_tenant(self, family: str, tenant: str) -> None:
        """Count one event in a per-tenant family (label values capped)."""
        if tenant not in self._tenant_labels:
            if len(self._tenant_labels) >= _MAX_TENANT_LABELS:
                tenant = "~other"
            else:
                self._tenant_labels.add(tenant)
        self.metrics.counter(family, labels={"tenant": tenant}).inc()

    def _admit(self, tenant: str) -> Optional[Response]:
        """Quota gate: None when admitted, else the 429 response."""
        self._count_tenant("tenant_requests_total", tenant)
        allowed, retry_after = self.quotas.admit(tenant)
        if allowed:
            return None
        self.metrics.inc("quota_throttled_total")
        self._count_tenant("tenant_throttled_total", tenant)
        headers = {"Retry-After": str(max(1, math.ceil(retry_after)))}
        return 429, headers, _error_body(
            "QuotaExceeded",
            f"tenant {tenant!r} is over its admission rate; "
            f"retry in {retry_after:.3f}s",
        )

    @staticmethod
    def _proxy_headers(headers: Dict[str, str], shard_id: str) -> Dict[str, str]:
        """Response headers forwarded to the client, plus the shard tag."""
        out: Dict[str, str] = {}
        cache = headers.get("x-repro-cache")
        if cache is not None:
            out["X-Repro-Cache"] = cache
        retry = headers.get("retry-after")
        if retry is not None:
            out["Retry-After"] = retry
        out["X-Repro-Shard"] = shard_id
        return out

    async def handle_map(self, body: bytes, tenant: str = DEFAULT_TENANT) -> Response:
        """Route one ``POST /map`` body through the cluster."""
        tracer = self.tracer
        span = tracer.begin(
            "route",
            cat="cluster.request",
            args={"path": "/map", "bytes": len(body)},
            nest=False,
        )
        end_args: Dict[str, Any] = {"status": 0}
        try:
            throttled = self._admit(tenant)
            if throttled is not None:
                end_args["status"] = throttled[0]
                return throttled
            lspan = tracer.begin(
                "ring.lookup",
                cat="cluster.stage",
                parent=span.span_id,
                nest=False,
            )
            body_key = _map_body_key(body)
            route = self._map_route_info(body, body_key)
            tracer.end(lspan, args={"key_kind": route.key.partition(":")[0]})
            if route.answer is not None:
                self.metrics.inc("body_cache_hits_total")
                end_args.update(status=200, cache="body")
                return 200, {
                    "X-Repro-Cache": "body",
                    "X-Repro-Shard": route.shard,
                }, route.answer
            status, headers, raw, shard_id = await self._forward(
                "/map", body, route.key, parent=span.span_id
            )
            if status is None or shard_id is None:
                end_args["status"] = 503
                return 503, {"Retry-After": "1"}, _error_body(
                    "NoShardsAvailable", "every shard is down or restarting"
                )
            end_args["status"] = status
            if status == 200:
                self._keep_answer(body_key, route, raw, shard_id)
            if status == 200 and headers.get("x-repro-cache") == "miss":
                rspan = tracer.begin(
                    "replicate",
                    cat="cluster.stage",
                    parent=span.span_id,
                    nest=False,
                )
                try:
                    await self._publish(route, raw, shard_id)
                finally:
                    tracer.end(rspan)
            return status, self._proxy_headers(headers, shard_id), raw
        finally:
            tracer.end(span, args=end_args)

    async def handle_delta(
        self, body: bytes, tenant: str = DEFAULT_TENANT
    ) -> Response:
        """Route one ``POST /map/delta`` body by its base key."""
        tracer = self.tracer
        span = tracer.begin(
            "route",
            cat="cluster.request",
            args={"path": "/map/delta", "bytes": len(body)},
            nest=False,
        )
        status_code = 0
        try:
            throttled = self._admit(tenant)
            if throttled is not None:
                status_code = throttled[0]
                return throttled
            lspan = tracer.begin(
                "ring.lookup",
                cat="cluster.stage",
                parent=span.span_id,
                nest=False,
            )
            route_key = self._delta_route_key(body)
            tracer.end(lspan, args={"key_kind": route_key.partition(":")[0]})
            status, headers, raw, shard_id = await self._forward(
                "/map/delta", body, route_key, parent=span.span_id
            )
            if status is None or shard_id is None:
                status_code = 503
                return 503, {"Retry-After": "1"}, _error_body(
                    "NoShardsAvailable", "every shard is down or restarting"
                )
            status_code = status
            return status, self._proxy_headers(headers, shard_id), raw
        finally:
            tracer.end(span, args={"status": status_code})

    async def _publish(self, route: _RouteInfo, raw: bytes, solver: str) -> None:
        """Retain a cold solve and fan it out to every sibling shard."""
        if route.canon_hex is None:
            return
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        if not isinstance(payload, dict) or payload.get("key") != route.key:
            return  # defensive: never publish under a mismatched key
        mapping = payload.get("mapping")
        perm = payload.get("perm")
        if (
            not isinstance(mapping, list)
            or not isinstance(perm, list)
            or len(mapping) != route.n
            or len(perm) != route.n
        ):
            return
        assignment = tuple(int(mapping[perm[c]]) for c in range(route.n))
        entry = ReplicaEntry(
            key=route.key,
            canon_hex=route.canon_hex,
            n=route.n,
            spec=route.spec,
            assignment=assignment,
        )
        if not self.replicas.put(entry):
            return  # already cluster-known: nothing new to fan out
        self.metrics.inc("replication_publish_total")
        siblings = [
            s for s in self.ring.shards if s != solver and s not in self._down
        ]
        if not siblings:
            return
        # Seeded-deterministic fan-out order: a rotation of the sorted
        # sibling list anchored on (seed, key), so two runs of one plan
        # push in the same order without always favoring shard-0.
        rotation = derive_seed(self.config.seed, "replication-fanout", entry.key)
        start = rotation % len(siblings)
        push_body = render_push([entry])
        for sibling in siblings[start:] + siblings[:start]:
            try:
                status, _, _ = await self._shard_request(
                    sibling, "POST", "/cache/push", push_body
                )
            except _SHARD_DEAD_ERRORS:
                self.metrics.inc("replication_push_failures_total")
                continue
            if status == 200:
                self.metrics.inc("replication_push_total")
            else:
                self.metrics.inc("replication_push_failures_total")

    # -- introspection endpoints -------------------------------------------------

    def shard_states(self) -> Dict[str, str]:
        """``{shard_id: "up" | "restarting" | "down"}`` for every member."""
        states: Dict[str, str] = {}
        for shard_id in self.ring.shards:
            if shard_id in self._restarting:
                states[shard_id] = "restarting"
            elif shard_id in self._down:
                states[shard_id] = "down"
            else:
                states[shard_id] = "up"
        return states

    def healthz(self) -> Response:
        """Cluster liveness: ``ok`` when every shard is up, else degraded."""
        states = self.shard_states()
        degraded = [s for s, state in states.items() if state != "up"]
        payload = {
            "status": "degraded" if degraded else "ok",
            "shards": states,
            "ring_version": self.ring.version,
            "replica_entries": len(self.replicas),
            "tenants": len(self.quotas),
        }
        body = json.dumps(payload, sort_keys=True, separators=_JSON_SEPARATORS)
        status = 200 if not degraded else 503
        return status, {}, body.encode("utf-8")

    def render_ring(self) -> Response:
        """``GET /ring``: the membership snapshot smart clients route by."""
        states = self.shard_states()
        shards = {}
        for shard_id in self.ring.shards:
            host, port = self._endpoints.get(shard_id, ("", 0))
            shards[shard_id] = {
                "host": host,
                "port": port,
                "state": states[shard_id],
            }
        payload = {
            "vnodes": self.ring.vnodes,
            "version": self.ring.version,
            "shards": shards,
        }
        body = json.dumps(payload, sort_keys=True, separators=_JSON_SEPARATORS)
        return 200, {}, body.encode("utf-8")

    async def render_metrics(self) -> Response:
        """Cluster ``GET /metrics``: summed shard counters + router rows.

        Every live shard's exposition is scraped and its *integer*,
        label-free ``repro_service_`` rows are summed into one combined
        section (float gauges like latency quantiles are per-shard
        quantities that do not sum; they stay on the shards' own
        endpoints).  The router's ``repro_cluster_`` registry — with the
        per-tenant series — renders after it.
        """
        kinds: Dict[str, str] = {}
        sums: Dict[str, int] = {}
        scraped = 0
        for shard_id in self.ring.shards:
            if shard_id in self._down:
                continue
            try:
                status, _, raw = await self._shard_request(
                    shard_id, "GET", "/metrics"
                )
            except _SHARD_DEAD_ERRORS:
                await self._shard_died(shard_id, kill=False)
                continue
            if status != 200:
                continue
            try:
                rows = parse_exposition(raw.decode("utf-8"))
            except ValueError:
                continue
            scraped += 1
            for name, (kind, value) in rows.items():
                if "{" in name or not isinstance(value, int):
                    continue  # labeled and float rows are shard-local
                kinds.setdefault(name, kind)
                sums[name] = sums.get(name, 0) + value
        lines = [f"# aggregated from {scraped} shard(s)"]
        for name, total in sums.items():
            lines += (f"# TYPE {name} {kinds[name]}", f"{name} {total}")
        text = "\n".join(lines) + "\n" + self.metrics.render()
        return 200, {"Content-Type": "text/plain; charset=utf-8"}, text.encode(
            "utf-8"
        )

    async def render_trace(self) -> Response:
        """Cluster ``GET /trace``: every live shard's ring stitched under
        the router's, one Chrome-trace document (see
        :mod:`repro.obs.stitch`).  Down shards are skipped — the merge
        covers whatever the cluster can currently answer for."""
        router_doc = chrome_trace(
            self.tracer.snapshot(),
            trace_id=self.tracer.trace_id,
            clock=self.tracer.clock,
        )
        shard_docs: Dict[str, Dict[str, Any]] = {}
        for shard_id in self.ring.shards:
            if shard_id in self._down:
                continue
            try:
                status, _, raw = await self._shard_request(
                    shard_id, "GET", "/trace"
                )
            except _SHARD_DEAD_ERRORS:
                await self._shard_died(shard_id, kill=False)
                continue
            if status != 200:
                continue
            try:
                doc = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            shard_docs[shard_id] = doc
        merged = stitch_cluster_trace(router_doc, shard_docs)
        body = render_chrome_json(merged).encode("utf-8")
        return 200, {"Content-Type": "application/json; charset=utf-8"}, body


class RouterServer(MappingServer):
    """The shared HTTP loop with the router's routing table."""

    def __init__(self, router: ClusterRouter):
        super().__init__(router)  # type: ignore[arg-type]
        self.router = router

    async def _route(self, request: _Request) -> Response:
        router = self.router
        if request.path in ("/map", "/map/delta"):
            if request.method != "POST":
                return 405, {"Allow": "POST"}, _error_body(
                    "MethodNotAllowed", f"{request.path} accepts POST only"
                )
            tenant = request.headers.get("x-tenant", DEFAULT_TENANT) or (
                DEFAULT_TENANT
            )
            if request.path == "/map":
                return await router.handle_map(request.body, tenant)
            return await router.handle_delta(request.body, tenant)
        if request.method != "GET":
            return 405, {"Allow": "GET"}, _error_body(
                "MethodNotAllowed", f"{request.path} accepts GET only"
            )
        if request.path == "/healthz":
            return router.healthz()
        if request.path == "/metrics":
            return await router.render_metrics()
        if request.path == "/ring":
            return router.render_ring()
        if request.path == "/trace":
            return await router.render_trace()
        return 404, {}, _error_body("NotFound", f"no route for {request.path}")


async def route_serve(config: Optional[RouterConfig] = None) -> None:
    """Run a sharded cluster until SIGTERM/SIGINT (the ``repro route`` body)."""
    router = ClusterRouter(config or RouterConfig())
    server = RouterServer(router)
    host, port = await server.start()
    server.install_signal_handlers()
    shard_count = len(router.ring)
    print(
        f"repro router listening on http://{host}:{port} "
        f"({shard_count} shard{'s' if shard_count != 1 else ''})",
        flush=True,
    )
    for shard_id in router.ring.shards:
        shard_host, shard_port = router._endpoints[shard_id]
        print(f"  {shard_id}: http://{shard_host}:{shard_port}", flush=True)
    await server.serve_until_shutdown()
    print("repro router drained and stopped", flush=True)
