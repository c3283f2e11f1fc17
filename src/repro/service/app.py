"""The mapping service pipeline: validate → canonicalize → cache → solve.

:class:`MappingService` is transport-agnostic — it maps raw request
bodies to ``(status, headers, body)`` triples — so the HTTP layer stays
a thin codec and tests can drive the pipeline directly.

Request pipeline for ``POST /map``:

1. **Exact-body cache** — a SHA-256 of the raw bytes keys previously
   rendered responses; repeated identical requests cost one dict lookup
   (and are byte-identical by construction).
2. **Parse + validate** — JSON body with a ``matrix`` (list of rows)
   and optional ``topology`` descriptor; structural garbage (NaN/Inf,
   negative, non-square, oversized) becomes a typed 400, never a solver
   crash.
3. **Canonicalize** — permutation-stable form + hash
   (:mod:`repro.service.canonical`); all relabelings of one matrix
   share a single solve-cache entry.
4. **Solve-cache / batcher** — misses go to the process pool through
   the single-flight, dispatch-on-idle batcher
   (:mod:`repro.service.batcher`); a full queue surfaces as 429.  When
   every pool slot is busy, a miss of at most
   :data:`INLINE_MAX_THREADS` threads is solved on the event loop
   instead (caller-runs), by the same :func:`worker.solve_item`.
5. **Render** — the canonical assignment is un-permuted back to the
   request's thread order, quality metrics are computed against the
   request's own matrix, and the response is serialized with sorted
   keys so identical bodies yield identical bytes across restarts and
   across pool workers.

``POST /map/delta`` is the online-remapping companion: instead of
re-sending the full matrix, a client references a prior response's
``key`` (every solved canonical matrix is retained in a keyed cache),
ships only the *changed* communication (decay factor + sparse updates),
and gets back a remap-or-hold verdict from the same hysteresis policy
the simulator's :class:`~repro.mapping.online.OnlineRemapController`
uses.  The delta path reuses the whole pipeline — body cache, canonical
form, solve cache, micro-batcher, circuit breaker and the chaos fault
sites all behave identically — so a delta solve is exactly as cheap,
cached and fault-tolerant as a full one.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.history import pattern_drift
from repro.faults.injector import InjectedCrash, get_injector
from repro.machine.topology import Topology
from repro.mapping.online import OnlineRemapPolicy
from repro.mapping.quality import mapping_quality
from repro.service import worker
from repro.service.batcher import (
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    Item,
    MicroBatcher,
    Overloaded,
    WorkerCrashed,
)
from repro.obs.context import TraceContext, context_from_env
from repro.obs.export import chrome_trace, render_chrome_json
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer
from repro.service.cache import LRUTTLCache
from repro.service.canonical import (
    canonical_form,
    canonical_key,
    normalize_matrix,
    pack_canonical,
    unpack_canonical,
    unpermute,
)
from repro.service.metrics import ServiceMetrics
from repro.util.validation import ValidationError

#: HTTP response triple: status, extra headers, body bytes.
Response = Tuple[int, Dict[str, str], bytes]

_JSON_SEPARATORS = (",", ":")

#: Largest miss (threads) the event loop solves itself when every pool
#: slot is busy.  A pool solve costs 0.83 / 1.8 / 6.2 / 27.5 ms at
#: n = 8 / 16 / 32 / 64 (2-CPU development host); up to n = 16 that is
#: about what the loop already spends canonicalizing an n = 64 matrix
#: (1.6 ms), so loop-side work stays bounded and hits barely notice it.
INLINE_MAX_THREADS = 16


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance (all read at start-up)."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: Process-pool size for solves; 0 = single worker thread in-process
    #: (tests and smoke runs — no pickling, deterministic, slower).
    workers: int = 1
    cache_entries: int = 4096
    cache_ttl: float = 300.0
    max_batch: int = 64
    #: Distinct keys allowed in flight before requests get 429.
    max_pending: int = 256
    max_body_bytes: int = 8 * 1024 * 1024
    max_threads: int = 256
    max_cores: int = 1024
    #: Seconds the server waits for in-flight requests on shutdown.
    drain_timeout: float = 10.0
    #: Per-batch solve deadline in seconds (0 disables).  A batch that
    #: overruns is abandoned, the pool is rebuilt, and the batch is
    #: requeued — a hung worker must never wedge the whole service.
    solve_deadline: float = 30.0
    #: How many times a crashed/timed-out batch is requeued before its
    #: waiters see the failure (503 + Retry-After).
    requeue_limit: int = 1
    #: Consecutive dispatch failures that open the circuit breaker.
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before admitting a probe.
    breaker_reset: float = 1.0
    #: Completed spans kept for ``GET /trace`` (0 disables tracing).
    trace_ring: int = 2048
    #: Keep 1-in-N request spans (1 = record every span).  Sampling is
    #: deterministic — seeded counter phase, not randomness — so the
    #: kept subset is identical across runs of one request sequence.
    trace_sample_every: int = 1
    #: Use the tracer's deterministic step counter instead of the
    #: injected wall clock for span timestamps.  Latency numbers become
    #: meaningless; exports become byte-identical across runs — the
    #: trade the cross-process stitching tests make.
    trace_step_clock: bool = False


class _BadRequest(Exception):
    """Internal: request rejected at the validation boundary."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class MappingService:
    """The detection→mapping pipeline behind the HTTP front end."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        solve_batch_fn: Callable[..., Any] = worker.solve_batch,
    ):
        self.config = config or ServiceConfig()
        self.clock = clock
        self.metrics = ServiceMetrics()
        self._solve_batch_fn = solve_batch_fn
        cfg = self.config
        # Tracing: adopt a process-global tracer (``repro trace
        # serve-request``), else keep a private ring sized by the config;
        # the injected service clock drives the wall track.
        active_tracer = get_tracer()
        if active_tracer.enabled:
            self.tracer: Tracer = active_tracer
        elif cfg.trace_ring > 0:
            self.tracer = Tracer(
                trace_id="service",
                wall_clock=None if cfg.trace_step_clock else clock,
                capacity=cfg.trace_ring,
                sample_every=cfg.trace_sample_every,
            )
        else:
            self.tracer = NULL_TRACER
        #: Static context from REPRO_TRACE_CONTEXT, propagated to pool
        #: workers via an in-band batch header (fresh parent per batch).
        self._trace_child_ctx = context_from_env()
        #: Canonical key → the first waiter's ``queue`` span id, alive
        #: only while that waiter's submit is in flight.  The batcher
        #: and ``_dispatch`` read it to parent ``batch.run`` /
        #: ``solve.batch`` under the request that opened the batch, so
        #: the solve path shows up inside one request's critical path
        #: instead of as parentless background spans.
        self._queue_parents: Dict[str, int] = {}
        self._body_cache: LRUTTLCache[bytes] = LRUTTLCache(
            cfg.cache_entries, cfg.cache_ttl, clock
        )
        self._solve_cache: LRUTTLCache[Tuple[int, ...]] = LRUTTLCache(
            cfg.cache_entries, cfg.cache_ttl, clock
        )
        #: Canonical matrices by canonical key, so ``/map/delta`` can
        #: reconstruct a base matrix from a prior response's ``key``
        #: without the client re-sending it.  Entries are
        #: ``(pack_canonical(canon), n, topo_spec)``: the strict upper
        #: triangle, half the bytes of the square matrix.
        self._matrix_cache: LRUTTLCache[
            Tuple[bytes, int, worker.TopoSpec]
        ] = LRUTTLCache(cfg.cache_entries, cfg.cache_ttl, clock)
        self.breaker = CircuitBreaker(
            threshold=cfg.breaker_threshold,
            reset_after=cfg.breaker_reset,
            clock=clock,
        )
        self._batcher = MicroBatcher(
            self._dispatch,
            max_batch=cfg.max_batch,
            max_pending=cfg.max_pending,
            slots=max(1, cfg.workers),
            deadline=cfg.solve_deadline,
            breaker=self.breaker,
            recover=self._recover_pool,
            requeue_limit=cfg.requeue_limit,
            tracer=self.tracer,
            span_parents=self._queue_parents,
        )
        self._executor: Optional[Executor] = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Create the solver executor (idempotent)."""
        if self._executor is not None:
            return
        if self.config.workers > 0:
            self._executor = ProcessPoolExecutor(max_workers=self.config.workers)
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-solve"
            )

    async def aclose(self) -> None:
        """Drain in-flight solves, then shut the executor down."""
        await self._batcher.drain()
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True)

    async def _recover_pool(self, exc: BaseException) -> None:
        """Replace a crashed or wedged executor with a fresh one.

        ``shutdown(wait=False)`` abandons any hung worker rather than
        joining it — with a process pool the stuck process lingers until
        its solve finishes, which is the documented cost of a ``hang``
        fault (DESIGN.md §11).
        """
        if isinstance(exc, DeadlineExceeded):
            self.metrics.solve_deadline_total += 1
        else:
            self.metrics.worker_crashes_total += 1
        self.metrics.pool_rebuilds_total += 1
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=False, cancel_futures=True)
        await self.start()

    # -- request handling --------------------------------------------------------

    async def handle_map(
        self, body: bytes, trace_ctx: Optional[TraceContext] = None
    ) -> Response:
        """Full pipeline for one ``POST /map`` body (traced when enabled).

        ``trace_ctx`` is an ``X-Repro-Trace`` header parsed by the HTTP
        layer: the remote trace/parent ids are recorded as span args so
        the router-side stitcher can re-parent this request span under
        the forwarding span of the process that sent it.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return await self._handle_map(body)
        args: Dict[str, Any] = {"bytes": len(body)}
        if trace_ctx is not None:
            args["remote_trace_id"] = trace_ctx.trace_id
            args["remote_parent"] = trace_ctx.parent_span_id
        # nest=False: concurrent requests interleave on the loop, so a
        # shared nesting stack would mis-parent spans across requests.
        span = tracer.begin(
            "request:/map",
            cat="service.request",
            args=args,
            nest=False,
        )
        try:
            status, headers, payload = await self._handle_map(body, span.span_id)
        except BaseException:
            tracer.end(span, args={"error": True})
            raise
        tracer.end(
            span,
            args={
                "status": status,
                "cache": headers.get("X-Repro-Cache", "none"),
            },
        )
        return status, headers, payload

    async def _handle_map(self, body: bytes, parent_id: int = 0) -> Response:
        """The untraced pipeline body behind :meth:`handle_map`."""
        self.metrics.mappings_total += 1
        body_key = hashlib.sha256(body).hexdigest()
        cached = self._body_cache.get(body_key)
        if cached is not None:
            self.metrics.body_cache_hits_total += 1
            return 200, {"X-Repro-Cache": "body"}, cached
        try:
            matrix, topology, spec = self._parse(body)
        except _BadRequest as exc:
            self.metrics.validation_errors_total += 1
            return 400, {}, _error_body(exc.kind, str(exc))
        tracer = self.tracer
        cspan = (
            tracer.begin(
                "canonicalize", cat="service.stage", parent=parent_id, nest=False
            )
            if tracer.enabled
            else None
        )
        canon, perm = canonical_form(matrix)
        key = canonical_key(canon, spec)
        if cspan is not None:
            tracer.end(cspan, args={"threads": matrix.shape[0]})
        # Retain the canonical matrix so later /map/delta requests can
        # reference this solve by key instead of re-sending the matrix.
        self._matrix_cache.put(key, (pack_canonical(canon), matrix.shape[0], spec))
        assignment, cache_state, error = await self._solve_canonical(
            key, canon, matrix.shape[0], spec, parent_id
        )
        if error is not None:
            return error
        rspan = (
            tracer.begin("render", cat="service.stage", parent=parent_id, nest=False)
            if tracer.enabled
            else None
        )
        mapping = unpermute(assignment, perm)
        quality = mapping_quality(matrix, mapping, topology)
        response = {
            "key": key,
            "mapping": mapping,
            # The request-order → canonical-slot permutation: /map/delta
            # callers echo it so sparse updates (in their own thread
            # numbering) can be applied to the cached canonical matrix.
            "perm": list(perm),
            "quality": {k: float(v) for k, v in sorted(quality.items())},
            "threads": matrix.shape[0],
            "topology": {
                "cores_per_l2": spec[0],
                "l2_per_chip": spec[1],
                "chips": spec[2],
            },
        }
        rendered = json.dumps(
            response, sort_keys=True, separators=_JSON_SEPARATORS
        ).encode("utf-8")
        if rspan is not None:
            tracer.end(rspan, args={"bytes": len(rendered)})
        # The miss observed before the solve's awaits is stale by now: a
        # concurrent request for the same body may have rendered and
        # cached already.  Re-check side-effect-free so the first writer
        # wins and its TTL window is not silently restarted.
        if self._body_cache.peek(body_key) is None:
            self._body_cache.put(body_key, rendered)
        return 200, {"X-Repro-Cache": cache_state}, rendered

    async def _solve_canonical(
        self,
        key: str,
        canon: np.ndarray,
        n: int,
        spec: worker.TopoSpec,
        parent_id: int = 0,
    ) -> Tuple[Optional[Tuple[int, ...]], str, Optional[Response]]:
        """Solve-cache / batcher step shared by /map and /map/delta.

        Returns ``(assignment, cache_state, error_response)``; exactly
        one of ``assignment`` / ``error_response`` is not None, so both
        endpoints surface overload, breaker trips and solve failures
        identically.
        """
        assignment = self._solve_cache.get(key)
        if assignment is not None:
            self.metrics.solve_cache_hits_total += 1
            return assignment, "solve", None
        self.metrics.solve_cache_misses_total += 1
        payload = (canon.tobytes(), n, spec)
        if (
            n <= INLINE_MAX_THREADS
            and self.config.workers >= 1
            and self._batcher.saturated
            and self.breaker.state == CircuitBreaker.CLOSED
            and not self._batcher.in_flight(key)
        ):
            return self._solve_inline(key, payload, parent_id), "miss", None
        tracer = self.tracer
        qspan = None
        registered = False
        if tracer.enabled:
            # The queue span covers the whole batcher wait (window +
            # dispatch); the first waiter for a key also lends its span
            # as the parent for that batch's solve spans.
            qspan = tracer.begin(
                "queue", cat="service.stage", parent=parent_id, nest=False
            )
            if qspan.span_id > 0 and key not in self._queue_parents:
                self._queue_parents[key] = qspan.span_id
                registered = True
        try:
            try:
                assignment = await self._batcher.submit(key, payload)
            except Overloaded as exc:
                self.metrics.rejected_total += 1
                headers = {"Retry-After": str(max(1, int(exc.retry_after)))}
                return None, "miss", (
                    429, headers, _error_body("Overloaded", str(exc))
                )
            except CircuitOpen as exc:
                self.metrics.shed_total += 1
                headers = {"Retry-After": str(max(1, math.ceil(exc.retry_after)))}
                return None, "miss", (
                    503, headers, _error_body("CircuitOpen", str(exc))
                )
            except (WorkerCrashed, DeadlineExceeded) as exc:
                # Requeues exhausted: fail the request cleanly and
                # retryably — the pool has already been rebuilt, so a
                # client honoring Retry-After will succeed next attempt.
                self.metrics.solve_failures_total += 1
                return None, "miss", (
                    503, {"Retry-After": "1"}, _error_body("Unavailable", str(exc))
                )
            return assignment, "miss", None
        finally:
            if registered:
                self._queue_parents.pop(key, None)  # repro-lint: ignore[RPL102] -- only the task that registered the key removes it (`registered` is task-local), so the entry cannot have been swapped across the await
            if qspan is not None:
                tracer.end(qspan)

    def _solve_inline(
        self, key: str, payload: Tuple[bytes, int, worker.TopoSpec], parent_id: int
    ) -> Tuple[int, ...]:
        """Caller-runs: solve a small miss on the loop while the pool is busy.

        No deadline (:data:`INLINE_MAX_THREADS` bounds the work) and no
        ``worker.solve`` fault site: an injected hang must never block
        the loop.  Counted apart from ``solves_total``, which stays the
        pool's items.
        """
        tracer = self.tracer
        span = (
            tracer.begin("solve.inline", cat="service.stage", parent=parent_id, nest=False)
            if tracer.enabled
            else None
        )
        raw, n, spec = payload
        assignment = worker.solve_item(key, raw, n, spec)
        if span is not None:
            tracer.end(span, args={"threads": n})
        self._solve_cache.put(key, assignment)
        self.metrics.inline_solves_total += 1
        return assignment

    async def handle_delta(
        self, body: bytes, trace_ctx: Optional[TraceContext] = None
    ) -> Response:
        """Full pipeline for one ``POST /map/delta`` body (traced)."""
        tracer = self.tracer
        if not tracer.enabled:
            return await self._handle_delta(body)
        args: Dict[str, Any] = {"bytes": len(body)}
        if trace_ctx is not None:
            args["remote_trace_id"] = trace_ctx.trace_id
            args["remote_parent"] = trace_ctx.parent_span_id
        span = tracer.begin(
            "request:/map/delta",
            cat="service.request",
            args=args,
            nest=False,
        )
        try:
            status, headers, payload = await self._handle_delta(body, span.span_id)
        except BaseException:
            tracer.end(span, args={"error": True})
            raise
        tracer.end(
            span,
            args={
                "status": status,
                "cache": headers.get("X-Repro-Cache", "none"),
            },
        )
        return status, headers, payload

    async def _handle_delta(self, body: bytes, parent_id: int = 0) -> Response:
        """The untraced pipeline body behind :meth:`handle_delta`.

        1. exact-body cache (namespaced apart from /map bodies);
        2. parse + validate the delta document;
        3. look the base matrix up by canonical key (404 when expired
           or never solved here);
        4. rebuild the client-order matrix, apply decay + updates;
        5. run the :class:`OnlineRemapPolicy` pre-gates — a held
           decision skips the solve entirely;
        6. otherwise canonicalize the updated matrix and solve through
           the shared cache/batcher path;
        7. render the remap-or-hold verdict (byte-deterministic).
        """
        self.metrics.delta_requests_total += 1
        body_key = hashlib.sha256(b"delta\x00" + body).hexdigest()
        cached = self._body_cache.get(body_key)
        if cached is not None:
            self.metrics.body_cache_hits_total += 1
            return 200, {"X-Repro-Cache": "body"}, cached
        try:
            doc = self._parse_delta(body)
        except _BadRequest as exc:
            self.metrics.validation_errors_total += 1
            return 400, {}, _error_body(exc.kind, str(exc))
        base_key = doc["base_key"]
        entry = self._matrix_cache.get(base_key)
        if entry is None:
            self.metrics.delta_unknown_base_total += 1
            return 404, {}, _error_body(
                "UnknownBaseKey",
                f"base_key {base_key!r} is not in the canonical-matrix "
                "cache (expired or never solved here); POST the full "
                "matrix to /map first",
            )
        packed, n, spec = entry
        canon = unpack_canonical(packed, n)
        try:
            base_cm, window_cm, policy, current_mapping = self._build_delta(
                doc, canon, n, spec
            )
        except _BadRequest as exc:
            self.metrics.validation_errors_total += 1
            return 400, {}, _error_body(exc.kind, str(exc))
        drift = pattern_drift(window_cm, base_cm)
        tracer = self.tracer
        cspan = (
            tracer.begin(
                "canonicalize", cat="service.stage", parent=parent_id, nest=False
            )
            if tracer.enabled
            else None
        )
        # The updated matrix is retained under its own key either way,
        # so clients can chain deltas off this response's ``key``.
        canon2, perm2 = canonical_form(window_cm.matrix)
        key2 = canonical_key(canon2, spec)
        if cspan is not None:
            tracer.end(cspan, args={"threads": n})
        self._matrix_cache.put(key2, (pack_canonical(canon2), n, spec))
        cache_state = "none"
        decision = policy.pre_gate(window_cm, 0, drift)
        if decision is None:
            assignment, cache_state, error = await self._solve_canonical(
                key2, canon2, n, spec, parent_id
            )
            if error is not None:
                return error
            proposed = unpermute(assignment, perm2)
            decision = policy.judge(
                window_cm, current_mapping, proposed, 0, drift
            )
        if decision.remap:
            self.metrics.delta_remaps_total += 1
            applied = list(decision.mapping)
        else:
            self.metrics.delta_holds_total += 1
            applied = list(current_mapping)
        rspan = (
            tracer.begin("render", cat="service.stage", parent=parent_id, nest=False)
            if tracer.enabled
            else None
        )
        response = {
            "base_key": base_key,
            "key": key2,
            "perm": list(perm2),
            "decision": decision.to_record(),
            "mapping": applied,
            "threads": n,
            "topology": {
                "cores_per_l2": spec[0],
                "l2_per_chip": spec[1],
                "chips": spec[2],
            },
        }
        rendered = json.dumps(
            response, sort_keys=True, separators=_JSON_SEPARATORS
        ).encode("utf-8")
        if rspan is not None:
            tracer.end(rspan, args={"bytes": len(rendered)})
        # Same stale-miss window as /map: only the first writer for this
        # body key populates the cache after the solve's awaits.
        if self._body_cache.peek(body_key) is None:
            self._body_cache.put(body_key, rendered)
        return 200, {"X-Repro-Cache": cache_state}, rendered

    async def handle_cache_push(self, body: bytes) -> Response:
        """Apply a cluster replication push (``POST /cache/push``).

        The router fans a sibling shard's cold solve out as
        :class:`~repro.cluster.replica.ReplicaEntry` documents; applying
        one populates both the solve cache (warm ``/map``) and the
        canonical-matrix cache (serviceable ``/map/delta`` base), so one
        solve anywhere is a warm hit everywhere.  Each entry's canonical
        matrix must be one a shard could have produced — finite,
        non-negative without ``-0.0``, exactly symmetric with a ``+0.0``
        diagonal, so its packed triangle is lossless — and its key is
        recomputed from its canonical bytes before acceptance; a
        corrupted or mis-keyed push is rejected rather than poisoning
        the caches.
        """
        # Local import: the wire codec lives with the cluster subsystem
        # that owns the protocol; the base service stays importable and
        # fully functional without the router ever being loaded.
        from repro.cluster.replica import parse_push

        try:
            entries = parse_push(body)
        except ValueError as exc:
            self.metrics.validation_errors_total += 1
            return 400, {}, _error_body("InvalidReplication", str(exc))
        applied = 0
        duplicate = 0
        for entry in entries:
            if entry.n > self.config.max_threads:
                self.metrics.validation_errors_total += 1
                return 400, {}, _error_body(
                    "ValidationError",
                    f"replica entry has {entry.n} threads, limit is "
                    f"{self.config.max_threads}",
                )
            cores = entry.spec[0] * entry.spec[1] * entry.spec[2]
            if cores > self.config.max_cores or entry.n > cores:
                self.metrics.validation_errors_total += 1
                return 400, {}, _error_body(
                    "ValidationError",
                    f"replica entry maps {entry.n} threads onto {cores} cores",
                )
            canon_bytes = bytes.fromhex(entry.canon_hex)
            canon = np.frombuffer(canon_bytes, dtype=np.float64).reshape(
                entry.n, entry.n
            )
            packed = pack_canonical(canon)
            if (
                not np.isfinite(canon).all()
                or np.signbit(canon).any()
                or unpack_canonical(packed, entry.n).tobytes() != canon_bytes
            ):
                self.metrics.validation_errors_total += 1
                return 400, {}, _error_body(
                    "InvalidReplication",
                    f"replica entry {entry.key!r} is not a canonical matrix: "
                    "it must be finite, non-negative (no -0.0) and exactly "
                    "symmetric with a zero diagonal",
                )
            if canonical_key(canon, entry.spec) != entry.key:
                self.metrics.validation_errors_total += 1
                return 400, {}, _error_body(
                    "InvalidReplication",
                    f"replica entry key {entry.key!r} does not match its "
                    "canonical bytes",
                )
            assignment = tuple(int(c) for c in entry.assignment)
            if (
                self._solve_cache.peek(entry.key) == assignment
                and self._matrix_cache.peek(entry.key) is not None
            ):
                duplicate += 1
                continue
            self._solve_cache.put(entry.key, assignment)
            self._matrix_cache.put(entry.key, (packed, entry.n, entry.spec))
            applied += 1
        self.metrics.replication_applied_total += applied
        self.metrics.replication_duplicate_total += duplicate
        payload = {"applied": applied, "duplicate": duplicate}
        rendered = json.dumps(
            payload, sort_keys=True, separators=_JSON_SEPARATORS
        ).encode("utf-8")
        return 200, {}, rendered

    def healthz(self) -> Response:
        """Liveness: ok plus a couple of cheap internals."""
        payload = {
            "status": "ok",
            "pending_solves": self._batcher.pending,
            "solve_cache_entries": len(self._solve_cache),
        }
        body = json.dumps(payload, sort_keys=True, separators=_JSON_SEPARATORS)
        return 200, {}, body.encode("utf-8")

    def render_metrics(self) -> Response:
        """The Prometheus text exposition (batcher counters folded in)."""
        m = self.metrics
        m.batches_total = self._batcher.batches_dispatched
        m.solves_total = self._batcher.items_dispatched
        m.coalesced_total = self._batcher.coalesced
        m.batch_requeues_total = self._batcher.requeues
        m.breaker_open_total = self.breaker.opened_total
        m.breaker_state = self.breaker.state_code
        m.faults_injected_total = get_injector().fired_total()
        tracer = self.tracer
        m.trace_spans_total = tracer.started_total
        m.trace_sampled_out_total = tracer.sampled_out_total
        stages = tracer.stage_counts
        m.trace_stage_canonicalize_total = stages.get("canonicalize", 0)
        m.trace_stage_queue_total = stages.get("queue", 0)
        m.trace_stage_solve_total = stages.get("solve", 0)
        m.trace_stage_render_total = stages.get("render", 0)
        return 200, {"Content-Type": "text/plain; charset=utf-8"}, m.render().encode("utf-8")

    def render_trace(self) -> Response:
        """``GET /trace``: Chrome-trace JSON of the span ring buffer."""
        doc = chrome_trace(
            self.tracer.snapshot(),
            trace_id=self.tracer.trace_id,
            clock=self.tracer.clock,
        )
        body = render_chrome_json(doc).encode("utf-8")
        return 200, {"Content-Type": "application/json; charset=utf-8"}, body

    # -- internals ---------------------------------------------------------------

    def _parse(
        self, body: bytes
    ) -> Tuple[np.ndarray, Topology, worker.TopoSpec]:
        """Decode and validate a /map body; raises :class:`_BadRequest`."""
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest("InvalidJSON", f"body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _BadRequest("InvalidRequest", "body must be a JSON object")
        unknown = set(doc) - {"matrix", "topology"}
        if unknown:
            raise _BadRequest(
                "InvalidRequest", f"unknown field(s): {sorted(unknown)}"
            )
        if "matrix" not in doc:
            raise _BadRequest("InvalidRequest", "missing required field 'matrix'")
        spec = self._parse_topology(doc.get("topology"))
        try:
            raw = np.asarray(doc["matrix"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(
                "ValidationError", f"matrix is not a numeric 2-D array: {exc}"
            ) from exc
        n = raw.shape[0] if raw.ndim >= 1 else 0
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise _BadRequest(
                "ValidationError",
                f"matrix must be square, got shape {tuple(raw.shape)}",
            )
        if n > self.config.max_threads:
            raise _BadRequest(
                "ValidationError",
                f"matrix has {n} threads, limit is {self.config.max_threads}",
            )
        try:
            matrix = normalize_matrix(raw)
        except ValidationError as exc:
            raise _BadRequest("ValidationError", str(exc)) from exc
        topology = worker.topology_from_spec(spec)
        if n > topology.num_cores:
            raise _BadRequest(
                "ValidationError",
                f"{n} threads will not fit on {topology.num_cores} cores "
                "(one thread per core)",
            )
        return matrix, topology, spec

    def _parse_topology(self, doc: Any) -> worker.TopoSpec:
        if doc is None:
            return (2, 2, 2)  # the paper's Harpertown shape
        if not isinstance(doc, dict):
            raise _BadRequest("InvalidRequest", "topology must be a JSON object")
        unknown = set(doc) - {"cores_per_l2", "l2_per_chip", "chips"}
        if unknown:
            raise _BadRequest(
                "InvalidRequest", f"unknown topology field(s): {sorted(unknown)}"
            )
        spec: List[int] = []
        for field in ("cores_per_l2", "l2_per_chip", "chips"):
            value = doc.get(field, 2)  # omitted fields: Harpertown shape
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise _BadRequest(
                    "ValidationError",
                    f"topology.{field} must be a positive integer, got {value!r}",
                )
            spec.append(value)
        cores = spec[0] * spec[1] * spec[2]
        if cores > self.config.max_cores:
            raise _BadRequest(
                "ValidationError",
                f"topology has {cores} cores, limit is {self.config.max_cores}",
            )
        return (spec[0], spec[1], spec[2])

    _DELTA_FIELDS = {
        "base_key", "perm", "updates", "decay", "current_mapping", "hysteresis",
    }
    #: Hysteresis knobs a delta request may override.  ``cooldown_cycles``
    #: is deliberately absent: the service is clockless, so thrash
    #: damping between calls is the caller's job (it has the cycle clock).
    _HYSTERESIS_FIELDS = {
        "min_improvement",
        "drift_threshold",
        "min_window_communication",
        "gain_cycles_per_cost_unit",
    }

    def _parse_delta(self, body: bytes) -> Dict[str, Any]:
        """Decode a /map/delta body; shape/type checks that need no base."""
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest("InvalidJSON", f"body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _BadRequest("InvalidRequest", "body must be a JSON object")
        unknown = set(doc) - self._DELTA_FIELDS
        if unknown:
            raise _BadRequest(
                "InvalidRequest", f"unknown field(s): {sorted(unknown)}"
            )
        for field in ("base_key", "perm", "updates", "current_mapping"):
            if field not in doc:
                raise _BadRequest(
                    "InvalidRequest", f"missing required field {field!r}"
                )
        if not isinstance(doc["base_key"], str):
            raise _BadRequest("ValidationError", "base_key must be a string")
        for field in ("perm", "updates", "current_mapping"):
            if not isinstance(doc[field], list):
                raise _BadRequest("ValidationError", f"{field} must be a list")
        decay = doc.get("decay", 1.0)
        if (
            isinstance(decay, bool)
            or not isinstance(decay, (int, float))
            or not math.isfinite(decay)
            or not 0.0 <= decay <= 1.0
        ):
            raise _BadRequest(
                "ValidationError", f"decay must be a number in [0, 1], got {decay!r}"
            )
        doc["decay"] = float(decay)
        hysteresis = doc.get("hysteresis", {})
        if not isinstance(hysteresis, dict):
            raise _BadRequest("ValidationError", "hysteresis must be a JSON object")
        unknown = set(hysteresis) - self._HYSTERESIS_FIELDS
        if unknown:
            raise _BadRequest(
                "InvalidRequest",
                f"unknown hysteresis field(s): {sorted(unknown)}",
            )
        for name, value in hysteresis.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _BadRequest(
                    "ValidationError",
                    f"hysteresis.{name} must be a number, got {value!r}",
                )
        doc["hysteresis"] = {k: float(v) for k, v in hysteresis.items()}
        return doc

    def _build_delta(
        self,
        doc: Dict[str, Any],
        canon: np.ndarray,
        n: int,
        spec: worker.TopoSpec,
    ) -> Tuple[CommunicationMatrix, CommunicationMatrix, OnlineRemapPolicy, List[int]]:
        """Validate against the base and materialize the updated window.

        Returns ``(base, window, policy, current_mapping)``, everything
        in the *client's* thread order.
        """
        perm = doc["perm"]
        if len(perm) != n or any(
            isinstance(p, bool) or not isinstance(p, int) for p in perm
        ) or sorted(perm) != list(range(n)):
            raise _BadRequest(
                "ValidationError",
                f"perm must be a permutation of 0..{n - 1} "
                "(echo the /map response's 'perm')",
            )
        # canon[c] holds client thread perm[c]; invert to read the base
        # matrix back out in client order.
        inv = [0] * n
        for slot, thread in enumerate(perm):
            inv[thread] = slot
        base = np.ascontiguousarray(canon[np.ix_(inv, inv)])
        updated = base * doc["decay"]
        for idx, update in enumerate(doc["updates"]):
            if not isinstance(update, list) or len(update) != 3:
                raise _BadRequest(
                    "ValidationError",
                    f"updates[{idx}] must be an [i, j, amount] triple",
                )
            i, j, amount = update
            for endpoint in (i, j):
                if (
                    isinstance(endpoint, bool)
                    or not isinstance(endpoint, int)
                    or not 0 <= endpoint < n
                ):
                    raise _BadRequest(
                        "ValidationError",
                        f"updates[{idx}] thread ids must be in 0..{n - 1}",
                    )
            if i == j:
                raise _BadRequest(
                    "ValidationError",
                    f"updates[{idx}] is self-communication ({i}, {j})",
                )
            if (
                isinstance(amount, bool)
                or not isinstance(amount, (int, float))
                or not math.isfinite(amount)
                or amount < 0
            ):
                raise _BadRequest(
                    "ValidationError",
                    f"updates[{idx}] amount must be a non-negative finite "
                    f"number, got {amount!r}",
                )
            updated[i, j] += amount
            updated[j, i] += amount
        try:
            base_cm = CommunicationMatrix.from_array(base)
            window_cm = CommunicationMatrix.from_array(updated)
        except ValidationError as exc:
            raise _BadRequest("ValidationError", str(exc)) from exc
        topology = worker.topology_from_spec(spec)
        current_mapping = doc["current_mapping"]
        if len(current_mapping) != n or any(
            isinstance(c, bool)
            or not isinstance(c, int)
            or not 0 <= c < topology.num_cores
            for c in current_mapping
        ):
            raise _BadRequest(
                "ValidationError",
                f"current_mapping must list {n} core ids in "
                f"0..{topology.num_cores - 1}",
            )
        try:
            policy = OnlineRemapPolicy(topology, **doc["hysteresis"])
        except ValueError as exc:
            raise _BadRequest("ValidationError", str(exc)) from exc
        return base_cm, window_cm, policy, list(current_mapping)

    async def _dispatch(self, items: List[Item]) -> Dict[str, Any]:
        """Run one micro-batch on the executor; populate the solve cache.

        Executor death — a real ``BrokenProcessPool`` or an injected
        crash from a chaos plan — is normalized to
        :class:`WorkerCrashed` so the batcher's rebuild-and-requeue
        path treats both identically.
        """
        if self._executor is None:
            await self.start()
        # start()'s awaits are scheduling points: a concurrent aclose()
        # may have torn the pool down again.  Snapshot after the last
        # await and act on the snapshot — run_in_executor(None, ...)
        # would silently fall back to the default thread pool and break
        # process isolation.
        executor = self._executor
        if executor is None:
            raise WorkerCrashed("executor closed while dispatching batch")
        tracer = self.tracer
        span = None
        if tracer.enabled:
            parent = self._batch_parent(items)
            kwargs: Dict[str, Any] = {"parent": parent} if parent else {}
            span = tracer.begin(
                "solve.batch",
                cat="service.batch",
                args={"items": len(items)},
                nest=False,
                **kwargs,
            )
        batch: List[worker.SolveItem] = [
            (key, payload[0], payload[1], payload[2]) for key, payload in items
        ]
        header_ctx: Optional[TraceContext] = None
        if self._trace_child_ctx is not None:
            # In-band header: the environment already named the trace;
            # the header adds this batch's parent span for exact linkage.
            header_ctx = self._trace_child_ctx
            if span is not None:
                header_ctx = replace(header_ctx, parent_span_id=span.span_id)
        elif span is not None and span.span_id > 0 and get_tracer() is tracer:
            # The service tracer is also the process-global one (a
            # standalone `repro serve`): thread-executor workers share
            # this process, so a bare header links their span under
            # this batch with no environment setup at all.
            header_ctx = TraceContext(
                trace_id=tracer.trace_id, parent_span_id=span.span_id
            )
        if header_ctx is not None:
            batch.insert(0, worker.trace_header(header_ctx))
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                executor,
                self._solve_batch_fn,  # repro-lint: ignore[RPL104] -- injection seam: defaults to worker.solve_batch (purity-checked); tests swap in crash/latency doubles
                batch,
            )
        except (BrokenExecutor, InjectedCrash) as exc:
            if span is not None:
                tracer.end(span, args={"error": type(exc).__name__})
            raise WorkerCrashed(f"{type(exc).__name__}: {exc}") from exc
        out: Dict[str, Any] = {}
        for key, assignment in results:
            assignment = tuple(int(c) for c in assignment)
            self._solve_cache.put(key, assignment)
            out[key] = assignment
        if span is not None:
            tracer.end(span, args={"solved": len(out)})
        return out

    def _batch_parent(self, items: List[Item]) -> int:
        """Span id to parent a batch's solve spans under.

        The first item whose key has a live ``queue`` span wins (see
        ``_queue_parents``); 0 when no waiter in the batch is traced.
        """
        for key, _payload in items:
            parent = self._queue_parents.get(key, 0)
            if parent:
                return parent
        return 0


def _error_body(kind: str, message: str) -> bytes:
    payload = {"error": {"type": kind, "message": message}}
    return json.dumps(payload, sort_keys=True, separators=_JSON_SEPARATORS).encode(
        "utf-8"
    )
