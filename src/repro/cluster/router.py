"""The cluster front end: consistent-hash routing over supervised shards.

:class:`ClusterRouter` is the app behind ``repro route``.  It duck-types
the surface :class:`~repro.service.http.MappingServer` drives (config /
metrics / clock / ``start`` / ``aclose``), so :class:`RouterServer` is
the same battle-tested HTTP loop with only the routing table swapped.

Request path for ``POST /map``:

1. **Tenant admission** — token bucket per ``X-Tenant`` header
   (:mod:`repro.cluster.quota`); exhaustion is ``429`` + ``Retry-After``
   before any routing work is spent.
2. **Canonical routing key** — the router canonicalizes the matrix with
   the *same* :mod:`repro.service.canonical` code the shards use, so
   permutation-equivalent requests hash to the same ring position and
   land on the shard whose caches are already warm.  A bounded body→key
   cache makes repeats a dict lookup; unparsable bodies fall back to a
   body-hash key (the shard answers the 400 — validation stays
   single-sourced).
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
``GET /ring`` exposes the membership snapshot smart clients (the bench
load rig) use to drive shards directly.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

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
from repro.obs.metrics import MetricsRegistry
from repro.obs.stitch import stitch_cluster_trace
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.app import Response, _error_body
from repro.service.cache import LRUTTLCache
from repro.service.canonical import canonical_form, canonical_key, normalize_matrix
from repro.service.client import AsyncMappingClient
from repro.service.http import MappingServer, _Request
from repro.service.metrics import _MetricAttr
from repro.util.rng import derive_seed
from repro.util.validation import ValidationError

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


#: ``repro_cluster_`` families in render order.
_ROUTER_ROWS: Tuple[Tuple[str, str], ...] = (
    ("requests_total", "counter"),
    ("routed_total", "counter"),
    ("reroutes_total", "counter"),
    ("unroutable_total", "counter"),
    ("quota_throttled_total", "counter"),
    ("shard_down_total", "counter"),
    ("shard_kills_total", "counter"),
    ("shard_restarts_total", "counter"),
    ("restart_failures_total", "counter"),
    ("replication_publish_total", "counter"),
    ("replication_push_total", "counter"),
    ("replication_push_failures_total", "counter"),
    ("replication_replay_total", "counter"),
    ("faults_injected_total", "counter"),
    ("http_errors_total", "counter"),
    ("connection_resets_total", "counter"),
    ("shards_up", "gauge"),
    ("inflight", "gauge"),
    # Tracing counters (PR 10): spans recorded / sampled out by the
    # router's own tracer plus its per-stage breakdown.  Appended after
    # the historical rows so pinned row prefixes are unchanged.
    ("trace_spans_total", "counter"),
    ("trace_sampled_out_total", "counter"),
    ("trace_stage_route_total", "counter"),
    ("trace_stage_ring_lookup_total", "counter"),
    ("trace_stage_forward_total", "counter"),
    ("trace_stage_replicate_total", "counter"),
    # /map repeats answered at the router without a forward.
    ("body_cache_hits_total", "counter"),
)

#: Distinct tenant label values tracked before folding into ``~other``
#: (label-cardinality guard on the exposition).
_MAX_TENANT_LABELS = 256


class RouterMetrics:
    """Router counter set (``repro_cluster_`` prefix, per-tenant labels)."""

    requests_total = _MetricAttr("requests_total", "counter")
    routed_total = _MetricAttr("routed_total", "counter")
    reroutes_total = _MetricAttr("reroutes_total", "counter")
    unroutable_total = _MetricAttr("unroutable_total", "counter")
    quota_throttled_total = _MetricAttr("quota_throttled_total", "counter")
    shard_down_total = _MetricAttr("shard_down_total", "counter")
    shard_kills_total = _MetricAttr("shard_kills_total", "counter")
    shard_restarts_total = _MetricAttr("shard_restarts_total", "counter")
    restart_failures_total = _MetricAttr("restart_failures_total", "counter")
    replication_publish_total = _MetricAttr("replication_publish_total", "counter")
    replication_push_total = _MetricAttr("replication_push_total", "counter")
    replication_push_failures_total = _MetricAttr(
        "replication_push_failures_total", "counter"
    )
    replication_replay_total = _MetricAttr("replication_replay_total", "counter")
    faults_injected_total = _MetricAttr("faults_injected_total", "counter")
    http_errors_total = _MetricAttr("http_errors_total", "counter")
    connection_resets_total = _MetricAttr("connection_resets_total", "counter")
    shards_up = _MetricAttr("shards_up", "gauge")
    inflight = _MetricAttr("inflight", "gauge")
    trace_spans_total = _MetricAttr("trace_spans_total", "counter")
    trace_sampled_out_total = _MetricAttr("trace_sampled_out_total", "counter")
    trace_stage_route_total = _MetricAttr("trace_stage_route_total", "counter")
    trace_stage_ring_lookup_total = _MetricAttr(
        "trace_stage_ring_lookup_total", "counter"
    )
    trace_stage_forward_total = _MetricAttr("trace_stage_forward_total", "counter")
    trace_stage_replicate_total = _MetricAttr(
        "trace_stage_replicate_total", "counter"
    )
    body_cache_hits_total = _MetricAttr("body_cache_hits_total", "counter")

    def __init__(self, latency_window: int = 2048):
        self.registry = MetricsRegistry(prefix="repro_cluster_")
        self._series = {
            name: (
                self.registry.counter(name)
                if kind == "counter"
                else self.registry.gauge(name)
            )
            for name, kind in _ROUTER_ROWS
        }
        self._latency_ms = self.registry.histogram(
            "latency_ms", window=latency_window
        )
        self.registry.callback_gauge(
            "latency_p50_ms", lambda: self._latency_ms.quantile(0.50, default=0.0)
        )
        self.registry.callback_gauge(
            "latency_p99_ms", lambda: self._latency_ms.quantile(0.99, default=0.0)
        )
        self._tenant_labels: Set[str] = set()

    def observe_latency_ms(self, value: float) -> None:
        """Record one routed-request latency."""
        self._latency_ms.observe(value)

    def _tenant_label(self, tenant: str) -> str:
        if tenant in self._tenant_labels:
            return tenant
        if len(self._tenant_labels) >= _MAX_TENANT_LABELS:
            return "~other"
        self._tenant_labels.add(tenant)
        return tenant

    def tenant_request(self, tenant: str) -> None:
        """Count one admission attempt for ``tenant``."""
        label = self._tenant_label(tenant)
        self.registry.counter(
            "tenant_requests_total", labels={"tenant": label}
        ).inc()

    def tenant_throttled(self, tenant: str) -> None:
        """Count one quota rejection for ``tenant``."""
        label = self._tenant_label(tenant)
        self.registry.counter(
            "tenant_throttled_total", labels={"tenant": label}
        ).inc()

    def render(self) -> str:
        """The router's own exposition text."""
        return self.registry.render()


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
        self.metrics = RouterMetrics()
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
        self.metrics.shards_up = len(self._endpoints)

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
        self.metrics.shard_down_total += 1
        self.metrics.shards_up = len(self._endpoints) - len(self._down)
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
                self.metrics.restart_failures_total += 1
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
                    self.metrics.replication_replay_total += len(entries)
                else:
                    self.metrics.replication_push_failures_total += 1
            self._down.discard(shard_id)
            self.metrics.shard_restarts_total += 1
            self.metrics.shards_up = len(self._endpoints) - len(self._down)
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
        """Mirror the shard's parse→normalize→canonicalize; None on any doubt.

        Uses the shard's own :func:`~repro.service.canonical.normalize_matrix`
        and :mod:`repro.service.canonical` code path, so the router's key
        always equals the key the shard will answer with — also for
        asymmetric bodies, a non-zero diagonal or signed zeros.  Anything
        that fails validation routes by body hash instead and lets the
        shard produce the authoritative 400.
        """
        cfg = self.config
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or "matrix" not in doc:
            return None
        topo = doc.get("topology", None)
        if topo is None:
            spec = (2, 2, 2)
        elif isinstance(topo, dict):
            values = []
            for fld in ("cores_per_l2", "l2_per_chip", "chips"):
                v = topo.get(fld, 2)
                if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                    return None
                values.append(v)
            spec = (values[0], values[1], values[2])
        else:
            return None
        if spec[0] * spec[1] * spec[2] > cfg.max_cores:
            return None
        try:
            raw = np.asarray(doc["matrix"], dtype=np.float64)
        except (TypeError, ValueError):
            return None
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] < 1:
            return None
        n = int(raw.shape[0])
        if n > cfg.max_threads:
            return None
        try:
            matrix = normalize_matrix(raw)
        except ValidationError:
            return None
        canon, _perm = canonical_form(matrix)
        key = canonical_key(canon, spec)
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
                self.metrics.reroutes_total += 1
            try:
                await injector.afire(SITE_CLUSTER_FORWARD)
            except InjectedCrash:
                self.metrics.shard_kills_total += 1
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
            self.metrics.routed_total += 1
            return status, headers, raw, shard_id
        self.metrics.unroutable_total += 1
        return None, {}, b"", None

    # -- request handling --------------------------------------------------------

    def _admit(self, tenant: str) -> Optional[Response]:
        """Quota gate: None when admitted, else the 429 response."""
        self.metrics.tenant_request(tenant)
        allowed, retry_after = self.quotas.admit(tenant)
        if allowed:
            return None
        self.metrics.quota_throttled_total += 1
        self.metrics.tenant_throttled(tenant)
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
                self.metrics.body_cache_hits_total += 1
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
        self.metrics.replication_publish_total += 1
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
                self.metrics.replication_push_failures_total += 1
                continue
            if status == 200:
                self.metrics.replication_push_total += 1
            else:
                self.metrics.replication_push_failures_total += 1

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
        self.metrics.shards_up = len(self._endpoints) - len(self._down)
        self.metrics.faults_injected_total = get_injector().fired_total()
        tracer = self.tracer
        stages = tracer.stage_counts
        self.metrics.trace_spans_total = tracer.started_total
        self.metrics.trace_sampled_out_total = tracer.sampled_out_total
        self.metrics.trace_stage_route_total = stages.get("route", 0)
        self.metrics.trace_stage_ring_lookup_total = stages.get("ring.lookup", 0)
        self.metrics.trace_stage_forward_total = stages.get("forward", 0)
        self.metrics.trace_stage_replicate_total = stages.get("replicate", 0)
        order: List[str] = []
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
            scraped += 1
            self._fold_exposition(raw.decode("utf-8"), order, kinds, sums)
        lines = [f"# aggregated from {scraped} shard(s)"]
        for name in order:
            lines.append(f"# TYPE {name} {kinds[name]}")
            lines.append(f"{name} {sums[name]}")
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

    @staticmethod
    def _fold_exposition(
        text: str,
        order: List[str],
        kinds: Dict[str, str],
        sums: Dict[str, int],
    ) -> None:
        """Accumulate one shard's int rows into the aggregation state."""
        pending_kind: Dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) == 4:
                    pending_kind[parts[2]] = parts[3]
                continue
            if not line or line.startswith("#"):
                continue
            name, _, value_text = line.partition(" ")
            if "{" in name:
                continue  # labeled series are shard-local detail
            try:
                value = int(value_text)
            except ValueError:
                continue  # float gauges do not sum meaningfully
            if name not in kinds:
                order.append(name)
                kinds[name] = pending_kind.get(name, "counter")
                sums[name] = 0
            sums[name] += value


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
