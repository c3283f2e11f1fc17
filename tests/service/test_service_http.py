"""End-to-end service tests over real sockets.

All tests run with ``workers=0`` (in-process worker thread) unless a
test is explicitly about the process pool: no pickling, so tests can
inject counting/gated solver doubles and deterministic clocks.
"""

import asyncio
import json
import threading
from contextlib import asynccontextmanager

import numpy as np
import pytest

from repro.cluster.router import ClusterRouter, RouterConfig, RouterServer
from repro.cluster.shards import InProcessShards
from repro.service import worker
from repro.service.app import MappingService, ServiceConfig
from repro.service.client import (
    AsyncMappingClient,
    ServiceError,
    ServiceOverloaded,
)
from repro.service.http import MappingServer
from repro.util.rng import as_rng

PAIR8 = [
    [0.0 if i == j else (100.0 if i // 2 == j // 2 else 1.0) for j in range(8)]
    for i in range(8)
]


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class CountingSolver:
    """Counts solve_batch calls; optionally blocks on a threading gate."""

    def __init__(self, gate: "threading.Event | None" = None):
        self.calls = 0
        self.items = 0
        self.gate = gate

    def __call__(self, batch):
        self.calls += 1
        self.items += len(batch)
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "test gate never released"
        return worker.solve_batch(batch)


@asynccontextmanager
async def serving(solver=None, clock=None, **config_overrides):
    """A listening server on an ephemeral port, drained on exit."""
    cfg = ServiceConfig(port=0, workers=0, **config_overrides)
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    if solver is not None:
        kwargs["solve_batch_fn"] = solver
    service = MappingService(cfg, **kwargs)
    server = MappingServer(service)
    host, port = await server.start()
    try:
        yield service, server, host, port
    finally:
        server.request_shutdown()
        await server.serve_until_shutdown()


class TestMapEndpoint:
    def test_pair_pattern_lands_partners_on_shared_l2(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await client.map_matrix(PAIR8)

        result = run(scenario())
        assert sorted(result.mapping) == list(range(8))
        assert result.quality["same_l2"] > 0.9
        assert result.cache_state == "miss"

    def test_identical_bodies_are_byte_identical_and_cached(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    first = await client.map_matrix(PAIR8)
                    second = await client.map_matrix(PAIR8)
                    return first, second

        first, second = run(scenario())
        assert second.raw == first.raw
        assert second.cache_state == "body"

    def test_permuted_matrix_hits_the_solve_cache(self):
        async def scenario():
            solver = CountingSolver()
            async with serving(solver=solver) as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    base = await client.map_matrix(PAIR8)
                    p = as_rng(5).permutation(8)
                    permuted = np.asarray(PAIR8)[np.ix_(p, p)]
                    other = await client.map_matrix(permuted)
                    return solver, base, other

        solver, base, other = run(scenario())
        assert solver.items == 1  # the permuted request reused the solve
        assert other.cache_state == "solve"
        assert other.key == base.key
        assert other.quality == base.quality

    def test_custom_topology_changes_key_and_layout(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    default = await client.map_matrix(PAIR8)
                    flat = await client.map_matrix(
                        PAIR8,
                        topology={"cores_per_l2": 8, "l2_per_chip": 1, "chips": 1},
                    )
                    return default, flat

        default, flat = run(scenario())
        assert default.key != flat.key
        assert flat.quality["same_l2"] == 1.0  # everything shares the one L2


class TestSingleFlight:
    def test_concurrent_identical_requests_cost_one_solve(self):
        gate = threading.Event()
        solver = CountingSolver(gate=gate)

        async def scenario():
            async with serving(solver=solver) as (
                svc, _srv, host, port,
            ):
                clients = [AsyncMappingClient(host, port) for _ in range(8)]
                for c in clients:
                    await c.connect()
                try:
                    tasks = [
                        asyncio.ensure_future(c.map_matrix(PAIR8)) for c in clients
                    ]
                    # Every request is in the pipeline before the solver
                    # is allowed to produce the one shared result.
                    while svc.metrics.value("inflight") < 8:
                        await asyncio.sleep(0.001)
                    gate.set()
                    return await asyncio.gather(*tasks)
                finally:
                    for c in clients:
                        await c.close()

        results = run(scenario())
        assert solver.items == 1
        raws = {r.raw for r in results}
        assert len(raws) == 1  # byte-identical across all concurrent callers

    def test_ttl_expiry_forces_a_resolve(self):
        clock = FakeClock()
        solver = CountingSolver()

        async def scenario():
            async with serving(solver=solver, clock=clock, cache_ttl=60.0) as (
                _svc, _srv, host, port,
            ):
                async with AsyncMappingClient(host, port) as client:
                    first = await client.map_matrix(PAIR8)
                    clock.advance(59.0)
                    warm = await client.map_matrix(PAIR8)
                    clock.advance(2.0)  # past the 60s TTL
                    expired = await client.map_matrix(PAIR8)
                    return first, warm, expired

        first, warm, expired = run(scenario())
        assert warm.cache_state == "body"
        assert expired.cache_state == "miss"
        assert solver.items == 2
        assert expired.raw == first.raw  # re-solve is still deterministic


class TestBackpressure:
    def test_full_queue_returns_429_with_retry_after(self):
        gate = threading.Event()
        solver = CountingSolver(gate=gate)
        ring = np.zeros((8, 8))
        for i in range(8):
            ring[i, (i + 1) % 8] = ring[(i + 1) % 8, i] = 50.0

        async def scenario():
            async with serving(solver=solver, max_pending=1) as (
                svc, _srv, host, port,
            ):
                first_client = AsyncMappingClient(host, port)
                second_client = AsyncMappingClient(host, port)
                await first_client.connect()
                await second_client.connect()
                try:
                    first = asyncio.ensure_future(first_client.map_matrix(PAIR8))
                    while svc._batcher.pending < 1:
                        await asyncio.sleep(0.001)
                    with pytest.raises(ServiceOverloaded) as exc_info:
                        await second_client.map_matrix(ring)
                    gate.set()
                    ok = await first
                    return exc_info.value, ok, svc.metrics.value("rejected_total")
                finally:
                    await first_client.close()
                    await second_client.close()

        overloaded, ok, rejected = run(scenario())
        assert overloaded.status == 429
        assert overloaded.retry_after >= 1.0
        assert rejected == 1
        assert sorted(ok.mapping) == list(range(8))


class TestValidation:
    @pytest.mark.parametrize(
        "matrix, fragment",
        [
            ([[0.0, float("nan")], [float("nan"), 0.0]], "finite"),
            ([[0.0, -1.0], [-1.0, 0.0]], "negative"),
            ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]], "square"),
        ],
        ids=["nan", "negative", "non-square"],
    )
    def test_bad_matrices_get_typed_400(self, matrix, fragment):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    body = json.dumps({"matrix": matrix}).encode()
                    return await client.request("POST", "/map", body)

        status, _headers, raw = run(scenario())
        payload = json.loads(raw)
        assert status == 400
        assert payload["error"]["type"] == "ValidationError"
        assert fragment in payload["error"]["message"]

    def test_non_json_body_is_400(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await client.request("POST", "/map", b"{not json")

        status, _headers, raw = run(scenario())
        assert status == 400
        assert json.loads(raw)["error"]["type"] == "InvalidJSON"

    def test_unknown_fields_are_rejected(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    body = json.dumps({"matrix": PAIR8, "mode": "turbo"}).encode()
                    return await client.request("POST", "/map", body)

        status, _headers, raw = run(scenario())
        assert status == 400
        assert "mode" in json.loads(raw)["error"]["message"]

    def test_too_many_threads_is_400(self):
        async def scenario():
            async with serving(max_threads=4) as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    with pytest.raises(ServiceError) as exc_info:
                        await client.map_matrix(np.ones((6, 6)) - np.eye(6))
                    return exc_info.value

        error = run(scenario())
        assert error.status == 400
        assert "limit is 4" in str(error)

    def test_more_threads_than_cores_is_400(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    with pytest.raises(ServiceError) as exc_info:
                        await client.map_matrix(
                            PAIR8,
                            topology={"cores_per_l2": 1, "l2_per_chip": 1, "chips": 4},
                        )
                    return exc_info.value

        error = run(scenario())
        assert error.status == 400
        assert "will not fit" in str(error)

    def test_validation_never_reaches_the_solver(self):
        solver = CountingSolver()

        async def scenario():
            async with serving(solver=solver) as (svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    await client.request("POST", "/map", b"garbage")
                    body = json.dumps(
                        {"matrix": [[0.0, -1.0], [-1.0, 0.0]]}
                    ).encode()
                    await client.request("POST", "/map", body)
                    return svc.metrics.value("validation_errors_total")

        errors = run(scenario())
        assert errors == 2
        assert solver.calls == 0


class TestRouting:
    def test_unknown_path_is_404(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await client.request("GET", "/nope")

        status, _headers, raw = run(scenario())
        assert status == 404
        assert json.loads(raw)["error"]["type"] == "NotFound"

    def test_wrong_method_is_405_with_allow(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    get_map = await client.request("GET", "/map")
                    post_health = await client.request("POST", "/healthz", b"{}")
                    return get_map, post_health

        get_map, post_health = run(scenario())
        assert get_map[0] == 405 and get_map[1]["allow"] == "POST"
        assert post_health[0] == 405 and post_health[1]["allow"] == "GET"

    def test_healthz_and_metrics(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    await client.map_matrix(PAIR8)
                    await client.map_matrix(PAIR8)
                    health = await client.healthz()
                    metrics = await client.metrics()
                    return health, metrics

        health, metrics = run(scenario())
        assert health["status"] == "ok"
        assert health["pending_solves"] == 0
        for name in (
            "repro_service_requests_total",
            "repro_service_body_cache_hits_total 1",
            "repro_service_solves_total 1",
            "repro_service_latency_p99_ms",
        ):
            assert name in metrics, f"{name!r} missing from:\n{metrics}"


#: A valid /map body, sent behind Content-Length spellings int() accepts.
SMALL_MAP = b'{"matrix":[[0,1],[1,0]]}'

#: Requests the parser must refuse, as raw bytes.  The two over-long
#: cases exceed asyncio's 64 KiB StreamReader line limit.
BAD_FRAMES = {
    "long-header": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
    ),
    "long-request-line": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    "malformed-request-line": b"GARBAGE\r\n\r\n",
    "101-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % i for i in range(101))
        + b"\r\n"
    ),
    "bad-content-length": b"POST /map HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    "transfer-encoding": (
        b"POST /map HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    ),
    "plus-content-length": (
        b"POST /map HTTP/1.1\r\nConnection: close\r\n"
        b"Content-Length: +%d\r\n\r\n" % len(SMALL_MAP) + SMALL_MAP
    ),
    "underscore-content-length": (
        b"POST /map HTTP/1.1\r\nConnection: close\r\n"
        b"Content-Length: %s\r\n\r\n"
        % "_".join(str(len(SMALL_MAP))).encode("ascii")
        + SMALL_MAP
    ),
    # Digits only, but past int()'s default 4300-digit string limit.
    "huge-content-length": (
        b"POST /map HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n"
    ),
}


@asynccontextmanager
async def routing(**config_overrides):
    """A listening router over one in-process shard, drained on exit."""
    router = ClusterRouter(
        RouterConfig(port=0, shards=1, **config_overrides),
        supervisor=InProcessShards(1),
    )
    server = RouterServer(router)
    host, port = await server.start()
    try:
        yield router, server, host, port
    finally:
        server.request_shutdown()
        await server.serve_until_shutdown()


class TestRawFraming:
    @pytest.mark.parametrize(
        "case, front",
        [(case, "serve") for case in BAD_FRAMES] + [("long-header", "route")],
    )
    def test_bad_framing_gets_400_and_close(self, case, front):
        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context)
            )
            async with (serving() if front == "serve" else routing()) as (
                app, _srv, host, port
            ):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(BAD_FRAMES[case])
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                errors = app.metrics.value("http_errors_total")
            return raw, errors, unhandled

        raw, errors, unhandled = run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.lower().split(": ", 1) for line in header_lines)
        assert status_line == "HTTP/1.1 400 Bad Request"
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["type"] == "BadRequest"
        assert errors == 1
        assert unhandled == []


class TestOversizedBody:
    @pytest.mark.parametrize("front", ["serve", "route"])
    def test_over_limit_body_gets_413_not_a_reset(self, front):
        # Far above what the socket buffers hold: the server refuses the
        # body unread, and a plain close would reset the connection.
        body = b"x" * (16 * 1024 * 1024)

        async def scenario():
            fronted = serving if front == "serve" else routing
            async with fronted(max_body_bytes=1024) as (app, srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    status, headers, raw = await client.request(
                        "POST", "/map", body
                    )
                for _ in range(200):
                    if not srv._handlers:
                        break
                    await asyncio.sleep(0.01)
                return (
                    status,
                    headers,
                    raw,
                    app.metrics.value("http_errors_total"),
                    len(srv._handlers),
                )

        status, headers, raw, errors, handlers = run(scenario())
        assert status == 413
        assert headers["connection"] == "close"
        assert json.loads(raw)["error"]["type"] == "BadRequest"
        assert errors == 1
        assert handlers == 0


class TestDeterminismAcrossRestartsAndWorkers:
    def test_restarted_server_renders_identical_bytes(self):
        body = json.dumps(
            {"matrix": PAIR8}, sort_keys=True, separators=(",", ":")
        ).encode()

        async def one_run():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    _status, _headers, raw = await client.request(
                        "POST", "/map", body
                    )
                    return raw

        first = run(one_run())
        second = run(one_run())
        assert first == second

    def test_process_pool_matches_in_process_solves(self):
        async def with_pool():
            cfg = ServiceConfig(port=0, workers=2)
            service = MappingService(cfg)
            server = MappingServer(service)
            host, port = await server.start()
            try:
                async with AsyncMappingClient(host, port) as client:
                    return (await client.map_matrix(PAIR8)).raw
            finally:
                server.request_shutdown()
                await server.serve_until_shutdown()

        async def in_process():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return (await client.map_matrix(PAIR8)).raw

        assert run(with_pool()) == run(in_process())


class TestGracefulShutdown:
    def test_inflight_request_is_answered_during_drain(self):
        gate = threading.Event()
        solver = CountingSolver(gate=gate)

        async def scenario():
            cfg = ServiceConfig(port=0, workers=0)
            service = MappingService(cfg, solve_batch_fn=solver)
            server = MappingServer(service)
            host, port = await server.start()
            client = AsyncMappingClient(host, port)
            await client.connect()
            request = asyncio.ensure_future(client.map_matrix(PAIR8))
            while service.metrics.value("inflight") < 1:
                await asyncio.sleep(0.001)
            shutdown = asyncio.ensure_future(server.serve_until_shutdown())
            server.request_shutdown()
            await asyncio.sleep(0.05)
            assert not shutdown.done()  # draining, not dropping
            gate.set()
            result = await request
            await shutdown
            await client.close()
            return result

        result = run(scenario())
        assert sorted(result.mapping) == list(range(8))

    def test_shutdown_closes_idle_connections(self):
        async def scenario():
            async with serving() as (_svc, server, host, port):
                client = AsyncMappingClient(host, port)
                await client.connect()
                await client.map_matrix(PAIR8)
                # exiting the context drains with the connection open
                return server, client

        server, _client = run(scenario())
        assert len(server._conns) == 0


class TestDrainDuringPoolRebuild:
    """SIGTERM while the solve pool is being rebuilt (chaos satellite):
    every accepted request must still be *answered* — completed once the
    rebuilt pool finishes the requeued batch, or failed cleanly with a
    retryable 503 — never dropped on the floor."""

    def _drain_scenario(self, plan, **config_overrides):
        from repro.faults.injector import activated

        async def scenario():
            with activated(plan):
                cfg = ServiceConfig(port=0, workers=0, **config_overrides)
                service = MappingService(cfg)
                server = MappingServer(service)
                host, port = await server.start()
                client = AsyncMappingClient(host, port)
                await client.connect()
                request = asyncio.ensure_future(client.map_matrix(PAIR8))
                while service.metrics.value("inflight") < 1:
                    await asyncio.sleep(0.001)
                # The worker is now hung inside the injected fault; the
                # drain that follows must ride through the deadline trip
                # and the pool rebuild it triggers.
                shutdown = asyncio.ensure_future(server.serve_until_shutdown())
                server.request_shutdown()
                await asyncio.sleep(0.02)
                assert not shutdown.done()  # draining, not dropping
                try:
                    outcome = await request
                except Exception as exc:  # noqa: BLE001 — returned for assertions
                    outcome = exc
                await shutdown
                await client.close()
                return service, outcome

        return run(scenario())

    def test_request_completes_through_rebuild_during_drain(self):
        from repro.faults.plan import SITE_WORKER_SOLVE, FaultEvent, FaultPlan

        plan = FaultPlan(seed=31, events=(
            FaultEvent(site=SITE_WORKER_SOLVE, invocation=1, kind="hang",
                       seconds=0.4),
        ))
        service, result = self._drain_scenario(plan, solve_deadline=0.1)
        assert sorted(result.mapping) == list(range(8))
        assert service.metrics.value("pool_rebuilds_total") == 1
        assert service.metrics.value("solve_deadline_total") == 1

    def test_request_fails_cleanly_when_rebuilds_exhaust_during_drain(self):
        from repro.faults.plan import SITE_WORKER_SOLVE, FaultEvent, FaultPlan
        from repro.service.client import ServiceUnavailable

        # Both the original dispatch and its one requeue hang: the
        # request must be *answered* with a retryable 503 mid-drain.
        plan = FaultPlan(seed=32, events=(
            FaultEvent(site=SITE_WORKER_SOLVE, invocation=1, kind="hang",
                       count=2, seconds=0.4),
        ))
        service, outcome = self._drain_scenario(
            plan, solve_deadline=0.1, requeue_limit=1
        )
        assert isinstance(outcome, ServiceUnavailable)
        assert outcome.retry_after >= 1.0
        assert service.metrics.value("solve_failures_total") == 1
        assert service.metrics.value("pool_rebuilds_total") == 2
