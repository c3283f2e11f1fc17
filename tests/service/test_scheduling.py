"""Solve scheduling: dispatch on idle, caller-runs small solves, rebuilds.

The pool tests run ``workers=1`` with :func:`holding_solve_batch`, a
picklable pool solver that parks every batch until a release file
exists.  While it holds the only slot, a small miss must be solved on
the event loop with the pool's bytes, and anything else must wait for
the pool exactly as before.
"""

import asyncio
import json
import os
import threading
import time
from contextlib import asynccontextmanager

import numpy as np

from repro.faults.injector import activated
from repro.faults.plan import SITE_WORKER_SOLVE, FaultEvent, FaultPlan
from repro.service import worker
from repro.service.app import MappingService, ServiceConfig
from repro.util.rng import as_rng

#: Environment variable naming the file whose existence releases the pool.
RELEASE_ENV = "SCHEDULING_TEST_RELEASE"

#: 64 cores, so every size below fits one thread per core.
TOPOLOGY = {"cores_per_l2": 2, "l2_per_chip": 2, "chips": 16}


def holding_solve_batch(items):
    """Pool solve that waits (about 30 s at most) for the release file."""
    release = os.environ[RELEASE_ENV]
    for _ in range(15000):
        if os.path.exists(release):
            break
        time.sleep(0.002)
    return worker.solve_batch(items)


def random_matrix(n, seed):
    m = as_rng(seed).random((n, n)) * 100.0
    m = m + m.T
    np.fill_diagonal(m, 0.0)
    return m


def body_of(matrix):
    return json.dumps({"matrix": matrix.tolist(), "topology": TOPOLOGY}).encode()


SMALL = random_matrix(8, 11)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


@asynccontextmanager
async def held_pool(tmp_path, monkeypatch, **overrides):
    """A ``workers=1`` service whose pool holds batches until released."""
    release = tmp_path / "release"
    monkeypatch.setenv(RELEASE_ENV, str(release))
    service = MappingService(
        ServiceConfig(workers=1, **overrides), solve_batch_fn=holding_solve_batch
    )
    await service.start()
    try:
        yield service, release
    finally:
        release.touch()
        await service.aclose()


async def occupy_pool(service, body):
    """Start ``body``'s request and return once its batch holds the slot."""
    task = asyncio.ensure_future(service.handle_map(body))
    while not service._batcher.saturated:
        await asyncio.sleep(0.001)
    return task


def idle_pool_answer(body):
    """The response an idle ``workers=1`` pool gives for ``body``."""
    async def scenario():
        service = MappingService(ServiceConfig(workers=1))
        await service.start()
        try:
            response = await service.handle_map(body)
            return response, service.metrics.value("inline_solves_total")
        finally:
            await service.aclose()

    (status, headers, payload), inline = run(scenario())
    assert (status, headers["X-Repro-Cache"], inline) == (200, "miss", 0)
    return payload


class TestCallerRuns:
    def test_small_miss_is_solved_on_the_loop_while_the_pool_is_busy(
        self, tmp_path, monkeypatch
    ):
        async def scenario():
            async with held_pool(tmp_path, monkeypatch) as (service, release):
                holder = await occupy_pool(service, body_of(random_matrix(64, 1)))
                small = await asyncio.wait_for(
                    service.handle_map(body_of(SMALL)), timeout=10
                )
                held = not holder.done()
                release.touch()
                big = await holder
                spans = [s.name for s in service.tracer.snapshot()]
                metrics = service.render_metrics()[2].decode()
                return small, held, big, spans, metrics

        small, held, big, spans, metrics = run(scenario())
        assert small[0] == 200 and small[1]["X-Repro-Cache"] == "miss"
        assert held  # answered while the pool still held the n=64 solve
        assert big[0] == 200
        assert "repro_service_inline_solves_total 1" in metrics
        assert "repro_service_solves_total 1" in metrics  # the pool's item only
        assert spans.count("solve.inline") == 1
        assert small[2] == idle_pool_answer(body_of(SMALL))

    def test_medium_miss_waits_for_the_pool(self, tmp_path, monkeypatch):
        async def scenario():
            async with held_pool(tmp_path, monkeypatch) as (service, release):
                holder = await occupy_pool(service, body_of(random_matrix(64, 1)))
                medium = asyncio.ensure_future(
                    service.handle_map(body_of(random_matrix(32, 2)))
                )
                await asyncio.sleep(0.05)
                queued = not medium.done() and service._batcher.pending == 2
                release.touch()
                responses = await asyncio.gather(holder, medium)
                return service, queued, responses

        service, queued, responses = run(scenario())
        assert queued
        assert [r[0] for r in responses] == [200, 200]
        assert service.metrics.value("inline_solves_total") == 0
        assert service._batcher.items_dispatched == 2

    def test_small_key_in_flight_in_the_pool_is_joined(self, tmp_path, monkeypatch):
        perm = as_rng(7).permutation(8)
        relabelled = SMALL[np.ix_(perm, perm)]

        async def scenario():
            async with held_pool(tmp_path, monkeypatch) as (service, release):
                first = await occupy_pool(service, body_of(SMALL))
                second = asyncio.ensure_future(
                    service.handle_map(body_of(relabelled))
                )
                await asyncio.sleep(0.05)
                joined = not second.done() and service._batcher.coalesced == 1
                release.touch()
                responses = await asyncio.gather(first, second)
                return service, joined, responses

        service, joined, responses = run(scenario())
        assert joined
        keys = {json.loads(r[2])["key"] for r in responses}
        assert [r[0] for r in responses] == [200, 200] and len(keys) == 1
        assert service.metrics.value("inline_solves_total") == 0
        assert service._batcher.items_dispatched == 1  # solved once

    def test_open_breaker_still_sheds_small_keys(self, tmp_path, monkeypatch):
        async def scenario():
            async with held_pool(
                tmp_path, monkeypatch, breaker_threshold=1
            ) as (service, release):
                holder = await occupy_pool(service, body_of(random_matrix(64, 1)))
                service.breaker.record_failure()  # trips open at threshold 1
                shed = await service.handle_map(body_of(SMALL))
                release.touch()
                await holder
                return service, shed

        service, (status, headers, payload) = run(scenario())
        assert status == 503 and "Retry-After" in headers
        assert json.loads(payload)["error"]["type"] == "CircuitOpen"
        assert service.metrics.value("shed_total") == 1
        assert service.metrics.value("inline_solves_total") == 0

    def test_worker_fault_site_never_fires_on_the_loop(self, tmp_path, monkeypatch):
        plan = FaultPlan(seed=5, events=(
            FaultEvent(site=SITE_WORKER_SOLVE, invocation=1, kind="crash"),
        ))

        async def scenario():
            async with held_pool(tmp_path, monkeypatch) as (service, release):
                # The pool child forked before the plan: only the loop sees it.
                holder = await occupy_pool(service, body_of(random_matrix(64, 1)))
                with activated(plan) as injector:
                    small = await service.handle_map(body_of(SMALL))
                    fired = injector.fired_total()
                release.touch()
                await holder
                return service, small, fired

        service, small, fired = run(scenario())
        assert small[0] == 200
        assert fired == 0
        assert service.metrics.value("inline_solves_total") == 1


class SlowFirstSolve:
    """In-process solver whose first call sleeps through the deadline.

    The rebuild abandons that call on the old executor's thread, which
    goes on to visit the process-global ``worker.solve`` fault site
    when it wakes.  ``first_returned`` lets the test wait for it, so
    the visit cannot count against a fault plan in a later test.
    """

    def __init__(self):
        self.calls = 0
        self.first_returned = threading.Event()

    def __call__(self, batch):
        self.calls += 1
        if self.calls != 1:
            return worker.solve_batch(batch)
        try:
            time.sleep(0.6)
            return worker.solve_batch(batch)
        finally:
            self.first_returned.set()


class TestPoolRebuild:
    def test_requests_behind_a_rebuild_are_answered(self):
        """A deadline trip rebuilds the pool; the requests that arrived
        meanwhile must still be answered, not left on a cancelled call."""
        solver = SlowFirstSolve()

        async def scenario():
            service = MappingService(
                ServiceConfig(workers=0, solve_deadline=0.2), solve_batch_fn=solver
            )
            await service.start()
            try:
                tasks = []
                for seed in (1, 2, 3):
                    tasks.append(asyncio.ensure_future(
                        service.handle_map(body_of(random_matrix(8, seed)))
                    ))
                    await asyncio.sleep(0.02)
                responses = await asyncio.wait_for(asyncio.gather(*tasks), timeout=5)
                return service, responses
            finally:
                await service.aclose()

        try:
            service, responses = run(scenario())
        finally:
            solver.first_returned.wait(timeout=5)
        assert [r[0] for r in responses] == [200, 200, 200]
        assert service._batcher.pending == 0
        assert service.metrics.value("pool_rebuilds_total") == 1
        assert service._batcher.requeues == 1
