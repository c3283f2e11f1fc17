"""Router behavior over in-process shards: routing, replication, failover.

Every test boots a real :class:`ClusterRouter` over
:class:`InProcessShards` (real sockets, ``workers=0`` solves).  Most call
the router's handlers directly — the HTTP framing above them is covered
by the cluster smoke and the service HTTP suite; the ``GET /ring`` test
goes through :class:`RouterServer`.
"""

import asyncio
import json
from contextlib import asynccontextmanager

import numpy as np

from repro.cluster.quota import DEFAULT_TENANT
from repro.cluster.router import (
    ClusterRouter,
    RouterConfig,
    RouterServer,
    _map_body_key,
)
from repro.cluster.shards import InProcessShards
from repro.service.client import AsyncMappingClient
from repro.util.rng import as_rng

THREADS = 8

PAIR8 = [
    [0.0 if i == j else (100.0 if i // 2 == j // 2 else 1.0)
     for j in range(THREADS)]
    for i in range(THREADS)
]


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@asynccontextmanager
async def cluster(shards=3, **config_kwargs):
    clock = config_kwargs.pop("clock", None)
    config = RouterConfig(shards=shards, **config_kwargs)
    supervisor = InProcessShards(shards)
    if clock is None:
        router = ClusterRouter(config, supervisor=supervisor)
    else:
        router = ClusterRouter(config, supervisor=supervisor, clock=clock)
    await router.start()
    try:
        yield router
    finally:
        await router.aclose()


def body_for(matrix):
    return json.dumps({"matrix": matrix}, sort_keys=True).encode("utf-8")


def respelled(matrix):
    """The same request as ``body_for(matrix)`` in different bytes."""
    return json.dumps({"matrix": matrix}, separators=(",", ":")).encode("utf-8")


def delta_for(raw):
    """A ``/map/delta`` body against the ``/map`` answer ``raw``."""
    payload = json.loads(raw)
    return json.dumps({
        "base_key": payload["key"],
        "perm": payload["perm"],
        "updates": [[0, 5, 250.0]],
        "current_mapping": payload["mapping"],
    }, sort_keys=True).encode("utf-8")


def distinct_bodies(count, seed=2012):
    rng = as_rng(seed)
    bodies = []
    for _ in range(count):
        a = rng.random((THREADS, THREADS)) * 100.0
        m = (a + a.T) / 2.0
        np.fill_diagonal(m, 0.0)
        bodies.append(body_for(m.tolist()))
    return bodies


class TestRouting:
    def test_same_body_lands_on_the_same_shard(self):
        async def scenario():
            async with cluster() as router:
                body = body_for(PAIR8)
                first = await router.handle_map(body)
                second = await router.handle_map(body)
                assert first[0] == second[0] == 200
                assert first[1]["X-Repro-Shard"] == second[1]["X-Repro-Shard"]
                assert first[1]["X-Repro-Cache"] == "miss"
                assert second[1]["X-Repro-Cache"] == "body"
                assert second[2] == first[2], "warm hit must be byte-identical"
                # The repeat is answered at the router: one forward only.
                assert router.metrics.value("routed_total") == 1
                assert router.metrics.value("body_cache_hits_total") == 1

        run(scenario())

    def test_permutation_equivalent_bodies_route_together(self):
        # A thread renumbering permutes the matrix but not the canonical
        # problem; the router must canonicalize exactly like the shards
        # so both spellings land on one shard (and one cache entry).
        async def scenario():
            perm = [3, 1, 7, 5, 0, 2, 6, 4]
            permuted = [
                [PAIR8[perm[i]][perm[j]] for j in range(THREADS)]
                for i in range(THREADS)
            ]
            async with cluster() as router:
                base = await router.handle_map(body_for(PAIR8))
                other = await router.handle_map(body_for(permuted))
                assert base[0] == other[0] == 200
                assert base[1]["X-Repro-Shard"] == other[1]["X-Repro-Shard"]
                payload_a = json.loads(base[2])
                payload_b = json.loads(other[2])
                assert payload_a["key"] == payload_b["key"]
                assert other[1]["X-Repro-Cache"] == "solve", (
                    "the permuted spelling must hit the shard's solve "
                    "cache under the shared canonical key, not trigger "
                    "a second cold solve"
                )

        run(scenario())

    def test_distinct_bodies_spread_over_shards(self):
        async def scenario():
            async with cluster(shards=3) as router:
                hit = set()
                for body in distinct_bodies(24):
                    status, headers, _ = await router.handle_map(body)
                    assert status == 200
                    hit.add(headers["X-Repro-Shard"])
                assert len(hit) == 3, f"24 keys only reached {sorted(hit)}"

        run(scenario())

    def test_unparsable_body_still_routes_and_shard_answers_400(self):
        # The router never judges bodies; garbage routes by body hash
        # and the owning shard returns the authoritative 400.
        async def scenario():
            async with cluster() as router:
                status, headers, raw = await router.handle_map(b"not json")
                assert status == 400
                assert "X-Repro-Shard" in headers
                assert json.loads(raw)["error"]
                assert router.metrics.value("routed_total") == 1
                assert router.metrics.value("unroutable_total") == 0

        run(scenario())


class TestRouterAnswers:
    """Exact repeats of a 200 ``/map`` body are answered at the router."""

    def test_repeat_is_answered_without_a_forward(self):
        async def scenario():
            async with cluster() as router:
                body = body_for(PAIR8)
                status, headers, first = await router.handle_map(body)
                assert status == 200
                solver = headers["X-Repro-Shard"]
                shard = router.supervisor.services[solver]
                mapped = shard.metrics.value("mappings_total")
                status, headers, again = await router.handle_map(body)
                assert status == 200 and again == first
                assert headers == {"X-Repro-Cache": "body", "X-Repro-Shard": solver}
                assert router.metrics.value("routed_total") == 1
                assert router.metrics.value("body_cache_hits_total") == 1
                assert shard.metrics.value("mappings_total") == mapped

        run(scenario())

    def test_answered_entry_keeps_no_canonical_payload(self):
        async def scenario():
            async with cluster() as router:
                body = body_for(PAIR8)
                _, headers, first = await router.handle_map(body)
                assert headers["X-Repro-Cache"] == "miss"
                entry = router._map_route_info(body)
                assert entry.answer == first
                assert entry.shard == headers["X-Repro-Shard"]
                assert entry.key == json.loads(first)["key"]
                assert entry.canon_hex is None and entry.n == 0

        run(scenario())

    def test_repeat_is_answered_after_its_shard_died(self):
        async def scenario():
            async with cluster(shards=3, restart_dead_shards=False) as router:
                body = body_for(PAIR8)
                _, headers, first = await router.handle_map(body)
                solver = headers["X-Repro-Shard"]
                await router.supervisor.kill(solver)
                status, headers, again = await router.handle_map(body)
                assert status == 200 and again == first
                assert headers["X-Repro-Shard"] == solver
                # No forward, so the death is still undiscovered.
                assert router.metrics.value("shard_down_total") == 0
                assert router.metrics.value("routed_total") == 1

        run(scenario())

    def test_errors_are_forwarded_every_time(self):
        async def scenario():
            async with cluster() as router:
                first = await router.handle_map(b"not json")
                second = await router.handle_map(b"not json")
                assert first[0] == second[0] == 400
                assert first[2] == second[2]
                assert router.metrics.value("routed_total") == 2
                assert router.metrics.value("body_cache_hits_total") == 0

        run(scenario())

    def test_delta_is_forwarded_every_time(self):
        async def scenario():
            async with cluster() as router:
                _, _, raw = await router.handle_map(body_for(PAIR8))
                delta_body = delta_for(raw)
                for _ in range(2):
                    status, _, _ = await router.handle_delta(delta_body)
                    assert status == 200
                assert router.metrics.value("routed_total") == 3
                assert router.metrics.value("body_cache_hits_total") == 0

        run(scenario())

    def test_repeat_after_the_ttl_is_forwarded_again(self):
        async def scenario():
            clock = FakeClock()
            async with cluster(cache_ttl=10, clock=clock) as router:
                body = body_for(PAIR8)
                await router.handle_map(body)
                clock.advance(11)
                status, _, _ = await router.handle_map(body)
                assert status == 200
                assert router.metrics.value("routed_total") == 2
                assert router.metrics.value("body_cache_hits_total") == 0
                await router.handle_map(body)
                assert router.metrics.value("body_cache_hits_total") == 1

        run(scenario())

    def test_first_kept_answer_wins_and_keeps_its_ttl(self):
        clock = FakeClock()
        router = ClusterRouter(
            RouterConfig(shards=1, cache_ttl=10),
            supervisor=InProcessShards(1),
            clock=clock,
        )
        body = body_for(PAIR8)
        body_key = _map_body_key(body)
        route = router._map_route_info(body, body_key)
        router._keep_answer(body_key, route, b"first", "shard-0")
        clock.advance(5)
        # A later forward that routed with the same entry keeps nothing.
        router._keep_answer(body_key, route, b"second", "shard-1")
        entry = router._route_cache.peek(body_key)
        assert (entry.answer, entry.shard) == (b"first", "shard-0")
        clock.advance(5)
        assert router._route_cache.peek(body_key) is None

    def test_answers_are_bounded_by_the_route_cache(self):
        async def scenario():
            async with cluster(route_cache_entries=2) as router:
                bodies = distinct_bodies(3)
                for body in bodies:
                    await router.handle_map(body)
                await router.handle_map(bodies[0])
                assert router.metrics.value("routed_total") == 4
                assert router.metrics.value("body_cache_hits_total") == 0

        run(scenario())

    def test_concurrent_first_requests_agree_and_one_answer_is_kept(self):
        async def scenario():
            async with cluster() as router:
                body = body_for(PAIR8)
                first, second = await asyncio.gather(
                    router.handle_map(body), router.handle_map(body)
                )
                assert first[0] == second[0] == 200
                assert first[2] == second[2]
                assert router.metrics.value("routed_total") == 2
                status, headers, third = await router.handle_map(body)
                assert status == 200 and third == first[2]
                assert headers["X-Repro-Cache"] == "body"
                assert router.metrics.value("routed_total") == 2
                assert router.metrics.value("body_cache_hits_total") == 1

        run(scenario())


class TestReplication:
    def test_cold_solve_warms_every_sibling(self):
        async def scenario():
            async with cluster(shards=3) as router:
                status, headers, _ = await router.handle_map(body_for(PAIR8))
                assert status == 200 and headers["X-Repro-Cache"] == "miss"
                assert router.metrics.value("replication_publish_total") == 1
                assert router.metrics.value("replication_push_total") == 2
                assert len(router.replicas) == 1
                solver = headers["X-Repro-Shard"]
                for shard_id, service in router.supervisor.services.items():
                    applied = service.metrics.value("replication_applied_total")
                    assert applied == (0 if shard_id == solver else 1), (
                        f"{shard_id}: applied={applied}, solver={solver}"
                    )

        run(scenario())

    def test_warm_hits_do_not_republish(self):
        async def scenario():
            async with cluster(shards=2) as router:
                body = body_for(PAIR8)
                await router.handle_map(body)
                await router.handle_map(body)
                await router.handle_map(body)
                assert router.metrics.value("replication_publish_total") == 1
                assert router.metrics.value("replication_push_total") == 1

        run(scenario())


class TestSharedNormalization:
    """The router keys a body exactly as the shard that answers it does."""

    @staticmethod
    def raw_bodies():
        rng = as_rng(77)
        asymmetric = rng.integers(0, 9, (THREADS, THREADS)).astype(float)
        np.fill_diagonal(asymmetric, 0.0)
        diagonal = rng.integers(0, 9, (THREADS, THREADS)).astype(float)
        diagonal = diagonal + diagonal.T
        np.fill_diagonal(diagonal, 5.0)
        return {"asymmetric": asymmetric, "diagonal": diagonal}

    def test_route_key_is_the_answer_key(self):
        async def scenario():
            async with cluster(shards=3) as router:
                out = {}
                for name, matrix in self.raw_bodies().items():
                    body = body_for(matrix.tolist())
                    route_key = router._map_route_info(body).key
                    status, headers, raw = await router.handle_map(body)
                    assert status == 200 and headers["X-Repro-Cache"] == "miss"
                    out[name] = (route_key, json.loads(raw)["key"])
                return out, router.metrics.value("replication_publish_total")

        keys, published = run(scenario())
        for name, (route_key, answer_key) in keys.items():
            assert route_key == answer_key, name
        # Matching keys are what lets the router replicate the solves.
        assert published == len(keys)

    def test_signed_zero_twins_route_together_and_share_a_solve(self):
        positive = [row[:] for row in PAIR8]
        positive[0][5] = positive[5][0] = 0.0
        negative = [row[:] for row in positive]
        negative[0][5] = negative[5][0] = -0.0

        async def scenario():
            async with cluster(shards=3) as router:
                answers = []
                for matrix in (negative, positive):
                    status, headers, raw = await router.handle_map(body_for(matrix))
                    assert status == 200
                    answers.append((headers["X-Repro-Cache"], json.loads(raw)["key"]))
                return answers

        (first_cache, first_key), (second_cache, second_key) = run(scenario())
        assert first_key == second_key
        assert (first_cache, second_cache) == ("miss", "solve")


class TestFailover:
    def test_dead_shard_rerouted_byte_identical(self):
        # Kill the solving shard after its cold solve; the re-routed
        # request must come back byte-identical from a sibling serving
        # the replicated entry.
        async def scenario():
            async with cluster(shards=3, restart_dead_shards=False) as router:
                body = body_for(PAIR8)
                status, headers, first = await router.handle_map(body)
                assert status == 200
                solver = headers["X-Repro-Shard"]
                await router.supervisor.kill(solver)
                # A respelling of the same matrix is not a byte repeat, so
                # it is forwarded to the dead owner and must re-route.
                status, headers, settled = await router.handle_map(
                    respelled(PAIR8)
                )
                assert status == 200
                assert headers["X-Repro-Shard"] != solver
                assert settled == first
                assert router.metrics.value("reroutes_total") == 1
                assert router.metrics.value("shard_down_total") == 1

        run(scenario())

    def test_delta_follows_base_even_after_owner_death(self):
        # /map/delta routes by base_key, so it lands where the base
        # solve lives; after the owner dies it must re-route to a
        # sibling whose replicated canonical entry can serve the delta.
        async def scenario():
            async with cluster(shards=3, restart_dead_shards=False) as router:
                status, headers, raw = await router.handle_map(body_for(PAIR8))
                assert status == 200
                owner = headers["X-Repro-Shard"]
                delta_body = delta_for(raw)

                status, headers, _ = await router.handle_delta(delta_body)
                assert status == 200
                assert headers["X-Repro-Shard"] == owner, (
                    "delta must follow its base to the owning shard"
                )
                await router.supervisor.kill(owner)
                status, headers, _ = await router.handle_delta(delta_body)
                assert status == 200
                assert headers["X-Repro-Shard"] != owner

        run(scenario())

    def test_degraded_health_and_recovery_by_restart(self):
        async def scenario():
            async with cluster(shards=2) as router:
                body = body_for(PAIR8)
                status, headers, first = await router.handle_map(body)
                assert status == 200
                solver = headers["X-Repro-Shard"]
                await router.supervisor.kill(solver)
                status, _, settled = await router.handle_map(respelled(PAIR8))
                assert status == 200 and settled == first
                # The death was just observed: health must degrade until
                # the automatic restart (with replica replay) completes.
                status, _, raw = router.healthz()
                assert status == 503
                assert json.loads(raw)["status"] == "degraded"
                for _ in range(500):
                    if router.healthz()[0] == 200:
                        break
                    await asyncio.sleep(0.01)
                status, _, raw = router.healthz()
                assert status == 200, raw
                assert router.metrics.value("shard_restarts_total") == 1
                assert router.metrics.value("replication_replay_total") == 1
                # The reborn shard received the replayed entry.
                reborn = router.supervisor.services[solver]
                assert reborn.metrics.value("replication_applied_total") == 1

        run(scenario())


class TestRing:
    def test_ring_names_each_shard_and_its_state(self):
        # GET /ring over the router's HTTP front: membership plus each
        # shard's endpoint, which a client can call directly.
        async def scenario():
            async with cluster(
                shards=2, port=0, restart_dead_shards=False
            ) as router:
                server = RouterServer(router)
                host, port = await server.start()
                try:
                    async with AsyncMappingClient(host, port) as client:
                        body = body_for(PAIR8)
                        await client.request("POST", "/map", body)
                        _, headers, hit = await client.request(
                            "POST", "/map", body
                        )
                        assert headers["x-repro-cache"] == "body"
                        owner = headers["x-repro-shard"]

                        status, _, raw = await client.request("GET", "/ring")
                        assert status == 200
                        ring = json.loads(raw)
                        assert ring["vnodes"] == 64
                        assert ring["version"] == router.ring.version
                        assert sorted(ring["shards"]) == ["shard-0", "shard-1"]
                        for entry in ring["shards"].values():
                            assert sorted(entry) == ["host", "port", "state"]
                            assert entry["state"] == "up"

                        # The owner, called at the endpoint /ring names,
                        # answers the bytes the router kept.
                        entry = ring["shards"][owner]
                        async with AsyncMappingClient(
                            entry["host"], entry["port"]
                        ) as direct:
                            _, _, raw = await direct.request("POST", "/map", body)
                        assert raw == hit

                        # A killed shard reads "down" once a forward has
                        # found it dead.
                        await router.supervisor.kill(owner)
                        status, _, _ = await client.request(
                            "POST", "/map", respelled(PAIR8)
                        )
                        assert status == 200
                        _, _, raw = await client.request("GET", "/ring")
                        assert json.loads(raw)["shards"][owner]["state"] == "down"
                finally:
                    server.request_shutdown()
                    await server.serve_until_shutdown()

        run(scenario())


class TestQuotasAndHealth:
    def test_tenant_throttled_with_retry_after(self):
        async def scenario():
            clock = FakeClock()
            async with cluster(
                shards=2, quota_rate=1.0, quota_burst=2.0, clock=clock
            ) as router:
                body = body_for(PAIR8)
                for _ in range(2):
                    status, _, _ = await router.handle_map(body, tenant="acme")
                    assert status == 200
                status, headers, raw = await router.handle_map(
                    body, tenant="acme"
                )
                assert status == 429
                assert headers["Retry-After"] == "1"
                assert json.loads(raw)["error"]["type"] == "QuotaExceeded"
                # Another tenant is not throttled by acme's debt.
                status, _, _ = await router.handle_map(body)
                assert status == 200
                assert router.metrics.value("quota_throttled_total") == 1
                clock.advance(1.0)
                status, _, _ = await router.handle_map(body, tenant="acme")
                assert status == 200

        run(scenario())

    def test_metrics_aggregate_shards_and_router(self):
        async def scenario():
            async with cluster(shards=2) as router:
                body = body_for(PAIR8)
                await router.handle_map(body)
                await router.handle_map(body)
                status, _, raw = await router.render_metrics()
                assert status == 200
                text = raw.decode("utf-8")
                rows = dict(
                    line.split(" ", 1)
                    for line in text.splitlines()
                    if line and not line.startswith("#") and "{" not in line
                )
                # Shard-side counters summed across both shards...
                assert int(rows["repro_service_requests_total"]) >= 2
                # ...next to the router's own families and tenant labels.
                assert int(rows["repro_cluster_routed_total"]) == 1
                assert int(rows["repro_cluster_body_cache_hits_total"]) == 1
                assert int(rows["repro_cluster_shards_up"]) == 2
                label = (
                    'repro_cluster_tenant_requests_total'
                    '{tenant="%s"} 2' % DEFAULT_TENANT
                )
                assert label in text

        run(scenario())
