"""Chaos scenarios for ``POST /map/delta``.

The delta endpoint shares the solve pipeline with /map, so it must
inherit the whole resilience contract for free: injected worker crashes
are requeued invisibly, exhausted requeues surface as retryable 503s,
response-site resets are absorbed by the client's reset budget — and in
every case the *settled* responses are byte-identical to a fault-free
run of the same scripted scenario.
"""

import asyncio
from dataclasses import dataclass, field
from typing import List

from repro.faults.injector import activated
from repro.faults.plan import (
    SITE_HTTP_RESPONSE,
    SITE_WORKER_SOLVE,
    FaultEvent,
    FaultPlan,
)
from repro.service.app import MappingService
from repro.service.client import AsyncMappingClient
from repro.service.http import MappingServer
from tests.faults.harness import (
    SCENARIO_TIMEOUT,
    capped_sleep,
    chaos_config,
    chaos_policy,
    pair_matrix,
)

#: The delta that flips pair_matrix's partners to cross pairs.
FAR_UPDATES = [[0, 4, 300.0], [1, 5, 300.0], [2, 6, 300.0], [3, 7, 300.0]]
NEAR_UPDATES = [[0, 1, 50.0], [2, 3, 50.0]]


@dataclass
class DeltaRun:
    """Observations from one scripted map+delta scenario."""

    bodies: List[bytes] = field(default_factory=list)
    remaps: List[bool] = field(default_factory=list)
    worker_crashes: int = 0
    solve_failures: int = 0
    delta_requests: int = 0
    client_retries: int = 0
    client_resets: int = 0


async def _drive(plan: FaultPlan) -> DeltaRun:
    """The fixed script: one full solve, a phase-shift delta, the same
    delta again (body cache), and a stable hold (no solve at all)."""
    run = DeltaRun()
    policy = chaos_policy(seed=plan.seed)
    with activated(plan):
        service = MappingService(chaos_config())
        server = MappingServer(service)
        host, port = await server.start()
        client = AsyncMappingClient(host, port)
        try:
            base = await client.map_matrix_retrying(
                pair_matrix(), policy=policy, sleep=capped_sleep
            )
            run.bodies.append(base.raw)
            for updates, decay in (
                (FAR_UPDATES, 0.05),
                (FAR_UPDATES, 0.05),
                (NEAR_UPDATES, 1.0),
            ):
                delta = await client.map_delta_retrying(
                    base.key, base.perm, updates, base.mapping,
                    decay=decay, policy=policy, sleep=capped_sleep,
                )
                run.bodies.append(delta.raw)
                run.remaps.append(delta.remap)
        finally:
            run.client_retries = client.retries
            run.client_resets = client.resets_retried
            await client.close()
            server.request_shutdown()
            await server.serve_until_shutdown()
        run.worker_crashes = service.metrics.value("worker_crashes_total")
        run.solve_failures = service.metrics.value("solve_failures_total")
        run.delta_requests = service.metrics.value("delta_requests_total")
    return run


def drive(plan: FaultPlan) -> DeltaRun:
    return asyncio.run(
        asyncio.wait_for(_drive(plan), timeout=SCENARIO_TIMEOUT)
    )


def assert_script_shape(run: DeltaRun) -> None:
    """The scenario's fault-independent invariants."""
    assert run.remaps == [True, True, False]
    # >= because a surfaced 503 means the client re-sent the delta.
    assert run.delta_requests >= 3
    assert run.bodies[1] == run.bodies[2]  # body-cache repeat


class TestFaultFree:
    def test_script_settles_and_is_deterministic(self):
        first, second = drive(FaultPlan()), drive(FaultPlan())
        assert_script_shape(first)
        assert first.bodies == second.bodies
        assert first.delta_requests == 3
        assert first.worker_crashes == 0
        assert first.client_retries == 0


class TestWorkerCrashDuringDeltaSolve:
    def test_crash_is_requeued_invisibly(self):
        # Invocation 2 of the solve site is the delta's solve (the base
        # /map solve is invocation 1): the crash must be absorbed
        # server-side, bodies identical to the fault-free run.
        plan = FaultPlan(seed=51, events=(
            FaultEvent(site=SITE_WORKER_SOLVE, invocation=2, kind="crash"),
        ))
        run, clean = drive(plan), drive(FaultPlan())
        assert_script_shape(run)
        assert run.bodies == clean.bodies
        assert run.worker_crashes == 1
        assert run.solve_failures == 0
        assert run.client_retries == 0  # recovery never left the server

    def test_exhausted_requeues_surface_503_then_client_settles(self):
        plan = FaultPlan(seed=52, events=(
            FaultEvent(site=SITE_WORKER_SOLVE, invocation=2, kind="crash",
                       count=2),
        ))
        run, clean = drive(plan), drive(FaultPlan())
        assert_script_shape(run)
        assert run.bodies == clean.bodies
        assert run.worker_crashes == 2
        assert run.solve_failures == 1  # the clean 503 the client retried
        assert run.client_retries >= 1

    def test_same_plan_replays_byte_identically(self):
        plan = FaultPlan(seed=53, events=(
            FaultEvent(site=SITE_WORKER_SOLVE, invocation=2, kind="crash"),
        ))
        first, second = drive(plan), drive(plan)
        assert first.bodies == second.bodies
        assert first.worker_crashes == second.worker_crashes
        assert first.client_retries == second.client_retries


class TestConnectionResetDuringDelta:
    def test_reset_is_absorbed_client_side(self):
        # Invocation 2 of the response site is the first delta answer:
        # the socket is aborted after the verdict is computed.  The
        # client replays on a fresh connection (the transparent
        # reconnect inside ``request``, or the reset budget), and the
        # replay lands on the body cache — settled bytes identical.
        plan = FaultPlan(seed=54, events=(
            FaultEvent(site=SITE_HTTP_RESPONSE, invocation=2, kind="reset"),
        ))
        run, clean = drive(plan), drive(FaultPlan())
        assert_script_shape(run)
        assert run.bodies == clean.bodies
        assert run.delta_requests == 4  # the aborted answer was re-sent
