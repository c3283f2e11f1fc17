"""Router behavior over in-process shards: routing, replication, failover.

Every test boots a real :class:`ClusterRouter` over
:class:`InProcessShards` (real sockets, ``workers=0`` solves) and calls
the router's handlers directly — the HTTP framing above them is covered
by the cluster smoke and the service HTTP suite.
"""

import asyncio
import json
from contextlib import asynccontextmanager

import numpy as np

from repro.cluster.quota import DEFAULT_TENANT
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.shards import InProcessShards
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
                assert router.metrics.routed_total == 2

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
                assert router.metrics.routed_total == 1
                assert router.metrics.unroutable_total == 0

        run(scenario())


class TestReplication:
    def test_cold_solve_warms_every_sibling(self):
        async def scenario():
            async with cluster(shards=3) as router:
                status, headers, _ = await router.handle_map(body_for(PAIR8))
                assert status == 200 and headers["X-Repro-Cache"] == "miss"
                assert router.metrics.replication_publish_total == 1
                assert router.metrics.replication_push_total == 2
                assert len(router.replicas) == 1
                solver = headers["X-Repro-Shard"]
                for shard_id, service in router.supervisor.services.items():
                    applied = service.metrics.replication_applied_total
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
                assert router.metrics.replication_publish_total == 1
                assert router.metrics.replication_push_total == 1

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
                return out, router.metrics.replication_publish_total

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
                status, headers, settled = await router.handle_map(body)
                assert status == 200
                assert headers["X-Repro-Shard"] != solver
                assert settled == first
                assert router.metrics.reroutes_total == 1
                assert router.metrics.shard_down_total == 1

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
                payload = json.loads(raw)
                delta_body = json.dumps({
                    "base_key": payload["key"],
                    "perm": payload["perm"],
                    "updates": [[0, 5, 250.0]],
                    "current_mapping": payload["mapping"],
                }, sort_keys=True).encode("utf-8")

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
                status, _, settled = await router.handle_map(body)
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
                assert router.metrics.shard_restarts_total == 1
                assert router.metrics.replication_replay_total == 1
                # The reborn shard received the replayed entry.
                reborn = router.supervisor.services[solver]
                assert reborn.metrics.replication_applied_total == 1

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
                assert router.metrics.quota_throttled_total == 1
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
                assert int(rows["repro_cluster_routed_total"]) == 2
                assert int(rows["repro_cluster_shards_up"]) == 2
                label = (
                    'repro_cluster_tenant_requests_total'
                    '{tenant="%s"} 2' % DEFAULT_TENANT
                )
                assert label in text

        run(scenario())
