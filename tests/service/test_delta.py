"""End-to-end tests for ``POST /map/delta`` (online remapping over HTTP).

The scenario mirrors the simulator's online controller: a client solves
a full matrix once, then streams sparse communication deltas against the
returned canonical ``key`` and acts on the service's remap-or-hold
verdicts.  Reuses the socket-serving fixtures from test_service_http.
"""

import json

import pytest

from repro.service.client import AsyncMappingClient, ServiceError

from tests.service.test_service_http import (
    PAIR8,
    CountingSolver,
    run,
    serving,
)

#: Cross-pair updates: with PAIR8's partners decayed away, these make
#: the pattern (0,4),(1,5),(2,6),(3,7) — a full phase shift.
FAR_UPDATES = [[0, 4, 300.0], [1, 5, 300.0], [2, 6, 300.0], [3, 7, 300.0]]
#: Same-pair updates: reinforce the pattern already in force.
NEAR_UPDATES = [[0, 1, 50.0], [2, 3, 50.0]]


async def _map_then_delta(client, updates, decay, hysteresis=None):
    base = await client.map_matrix(PAIR8)
    delta = await client.map_delta(
        base.key, base.perm, updates, base.mapping,
        decay=decay, hysteresis=hysteresis,
    )
    return base, delta


class TestVerdicts:
    def test_phase_shift_remaps(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await _map_then_delta(client, FAR_UPDATES, 0.05)

        base, delta = run(scenario())
        assert delta.remap is True
        assert delta.reason == "remap"
        assert delta.drift > 0.3
        assert sorted(delta.mapping) == list(range(8))
        assert delta.mapping != base.mapping
        assert delta.base_key == base.key
        assert delta.key != base.key
        assert delta.cache_state == "miss"  # the shifted matrix is a new solve
        d = delta.decision
        assert d["moved_threads"] > 0
        assert d["predicted_gain_cycles"] > d["migration_cost_cycles"]

    def test_remap_lands_new_partners_together(self):
        # The verdict is not just "remap": the proposed placement must
        # actually co-locate the post-shift pairs.
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    _base, delta = await _map_then_delta(
                        client, FAR_UPDATES, 0.05
                    )
                    return delta

        delta = run(scenario())
        for i, j in ((0, 4), (1, 5), (2, 6), (3, 7)):
            assert delta.mapping[i] // 2 == delta.mapping[j] // 2, (
                f"pair ({i},{j}) split across L2s: {delta.mapping}"
            )

    def test_stable_pattern_holds_on_drift_without_solving(self):
        solver = CountingSolver()

        async def scenario():
            async with serving(solver=solver) as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await _map_then_delta(client, NEAR_UPDATES, 1.0)

        base, delta = run(scenario())
        assert delta.remap is False
        assert delta.reason == "hold:drift"
        assert delta.drift < 0.3
        assert delta.mapping == base.mapping  # echoed, not recomputed
        assert delta.cache_state == "none"
        assert solver.items == 1  # only the base /map solve ran

    def test_empty_window_holds_on_no_signal(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await _map_then_delta(client, [], 0.0)

        _base, delta = run(scenario())
        assert (delta.remap, delta.reason) == (False, "hold:no-signal")

    def test_hysteresis_override_gates_the_same_shift(self):
        # The same phase shift that remaps under defaults holds when the
        # caller prices predicted gain down to almost nothing.
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await _map_then_delta(
                        client, FAR_UPDATES, 0.05,
                        hysteresis={"gain_cycles_per_cost_unit": 0.001},
                    )

        _base, delta = run(scenario())
        assert (delta.remap, delta.reason) == (False, "hold:migration-cost")

    def test_deltas_chain_off_the_returned_key(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    _base, first = await _map_then_delta(
                        client, FAR_UPDATES, 0.05
                    )
                    # Reinforce the *new* pattern against the new key:
                    # the placement just adopted is still right → hold.
                    second = await client.map_delta(
                        first.key, first.perm,
                        [[0, 4, 30.0], [1, 5, 30.0]],
                        first.mapping,
                    )
                    return first, second

        first, second = run(scenario())
        assert second.base_key == first.key
        assert second.remap is False
        assert second.reason in ("hold:drift", "hold:same-mapping")


class TestCachingAndDeterminism:
    def test_identical_delta_bodies_are_byte_identical_and_cached(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    base = await client.map_matrix(PAIR8)
                    first = await client.map_delta(
                        base.key, base.perm, FAR_UPDATES, base.mapping,
                        decay=0.05,
                    )
                    second = await client.map_delta(
                        base.key, base.perm, FAR_UPDATES, base.mapping,
                        decay=0.05,
                    )
                    return first, second

        first, second = run(scenario())
        assert second.raw == first.raw
        assert second.cache_state == "body"

    def test_restarted_server_renders_identical_delta_bytes(self):
        async def one_run():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    _base, delta = await _map_then_delta(
                        client, FAR_UPDATES, 0.05
                    )
                    return delta.raw

        assert run(one_run()) == run(one_run())

    def test_delta_counters_track_verdicts(self):
        async def scenario():
            async with serving() as (svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    await _map_then_delta(client, FAR_UPDATES, 0.05)
                    base = await client.map_matrix(PAIR8)
                    await client.map_delta(
                        base.key, base.perm, NEAR_UPDATES, base.mapping
                    )
                    return svc.metrics

        metrics = run(scenario())
        assert metrics.value("delta_requests_total") == 2
        assert metrics.value("delta_remaps_total") == 1
        assert metrics.value("delta_holds_total") == 1
        assert metrics.value("delta_unknown_base_total") == 0


class TestErrors:
    def test_unknown_base_key_is_404(self):
        async def scenario():
            async with serving() as (svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    with pytest.raises(ServiceError) as exc_info:
                        await client.map_delta(
                            "no-such-key", list(range(8)), [], [0] * 8
                        )
                    return exc_info.value, svc.metrics.value("delta_unknown_base_total")

        error, unknown = run(scenario())
        assert error.status == 404
        assert error.payload["error"]["type"] == "UnknownBaseKey"
        assert unknown == 1

    def test_wrong_method_is_405(self):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await client.request("GET", "/map/delta")

        status, headers, _raw = run(scenario())
        assert status == 405
        assert headers["allow"] == "POST"

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(perm=[0] * 8), "permutation"),
            (lambda d: d.update(updates=[[1, 1, 5.0]]), "self-communication"),
            (lambda d: d.update(updates=[[0, 99, 5.0]]), "thread ids"),
            (lambda d: d.update(updates=[[0, 1, -5.0]]), "non-negative"),
            (lambda d: d.update(decay=1.5), "decay"),
            (lambda d: d.update(current_mapping=[99] * 8), "core ids"),
            (lambda d: d.update(mode="turbo"), "mode"),
            (
                lambda d: d.update(hysteresis={"cooldown_cycles": 1}),
                "cooldown_cycles",
            ),
            (
                lambda d: d.update(hysteresis={"drift_threshold": 9.0}),
                "drift_threshold",
            ),
        ],
        ids=[
            "bad-perm", "self-comm", "thread-range", "negative-amount",
            "decay-range", "mapping-range", "unknown-field",
            "unknown-hysteresis", "bad-hysteresis-value",
        ],
    )
    def test_invalid_deltas_get_typed_400(self, mutate, fragment):
        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    base = await client.map_matrix(PAIR8)
                    doc = {
                        "base_key": base.key,
                        "perm": base.perm,
                        "updates": [],
                        "current_mapping": base.mapping,
                    }
                    mutate(doc)
                    body = json.dumps(doc).encode()
                    return await client.request("POST", "/map/delta", body)

        status, _headers, raw = run(scenario())
        payload = json.loads(raw)
        assert status == 400
        assert payload["error"]["type"] in ("ValidationError", "InvalidRequest")
        assert fragment in payload["error"]["message"]

    def test_validation_never_reaches_the_solver(self):
        solver = CountingSolver()

        async def scenario():
            async with serving(solver=solver) as (svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    base = await client.map_matrix(PAIR8)
                    bad = {
                        "base_key": base.key,
                        "perm": base.perm,
                        "updates": [[0, 0, 1.0]],
                        "current_mapping": base.mapping,
                    }
                    await client.request(
                        "POST", "/map/delta", json.dumps(bad).encode()
                    )
                    return svc.metrics.value("validation_errors_total")

        errors = run(scenario())
        assert errors == 1
        assert solver.items == 1  # only the base solve
