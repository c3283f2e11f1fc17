"""Chaos harness: drive the real service loop under a fault plan.

One :func:`run_chaos` call boots the actual stack — ``MappingService``
behind ``MappingServer`` on a real ephemeral socket — activates a
:class:`~repro.faults.plan.FaultPlan`, replays a fixed request script
through the retrying client, drains the server, and returns a
:class:`ChaosRun` capturing everything the determinism contract covers:

* the exact response bytes per request (``bodies``) and any surfaced
  error per request (``errors``),
* the fault-tolerance counters from ``/metrics`` (``fault_counters``),
* the injector's fired-event snapshot and the client's retry counters.

The contract under test (DESIGN.md §11): faults fire on *invocation
counts*, never wall clock, and requests are replayed serially — so two
runs of one plan produce identical ``ChaosRun`` observations, and a
transient-only plan settles to responses byte-identical to a fault-free
run.

Sleeps are real (the breaker needs elapsed monotonic time to half-open)
but capped at :data:`SLEEP_CAP` seconds, which keeps a worst-case chaos
scenario under a second or two while still comfortably exceeding the
harness breaker's ``reset_after`` — the property that makes breaker
state transitions deterministic here.
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.faults.injector import activated
from repro.faults.plan import FaultPlan
from repro.service.app import MappingService, ServiceConfig
from repro.service.client import AsyncMappingClient, RetryPolicy
from repro.service.http import MappingServer

#: Counters that must be bit-identical across reruns of one plan.
#: (``breaker_state`` is a point-in-time gauge, deliberately excluded.)
FAULT_COUNTERS = (
    "faults_injected_total",
    "worker_crashes_total",
    "pool_rebuilds_total",
    "batch_requeues_total",
    "solve_deadline_total",
    "breaker_open_total",
    "shed_total",
    "solve_failures_total",
    "connection_resets_total",
)

#: Real-sleep ceiling for client backoff inside the harness.  Must stay
#: well above the harness breaker ``reset_after`` (0.05s) so that every
#: post-failure attempt finds the breaker past its open window — which
#: is what makes breaker transitions a function of the request script
#: rather than of scheduling noise.
SLEEP_CAP = 0.25

_METRIC_RE = re.compile(r"^repro_service_(\w+) (\S+)$", re.MULTILINE)

#: Hard ceiling on one scripted scenario; a chaos run that exceeds it
#: is wedged, and a crisp TimeoutError beats a hung test session.
SCENARIO_TIMEOUT = 60.0


async def capped_sleep(delay: float) -> None:
    """The harness's injected client sleep: real, but bounded."""
    await asyncio.sleep(min(delay, SLEEP_CAP))


def pair_matrix(n: int = 8) -> np.ndarray:
    """Block-diagonal pair traffic (the paper's producer-consumer shape)."""
    m = np.ones((n, n)) * 1.0
    for i in range(0, n, 2):
        m[i, i + 1] = m[i + 1, i] = 100.0
    np.fill_diagonal(m, 0.0)
    return m


def ring_matrix(n: int = 8) -> np.ndarray:
    """Nearest-neighbour ring traffic (domain decomposition shape)."""
    m = np.ones((n, n)) * 0.5
    for i in range(n):
        m[i, (i + 1) % n] = m[(i + 1) % n, i] = 50.0
    np.fill_diagonal(m, 0.0)
    return m


def uniform_matrix(n: int = 6) -> np.ndarray:
    """All-to-all traffic (reduction shape); n=6 under-fills 8 cores."""
    m = np.full((n, n), 10.0)
    np.fill_diagonal(m, 0.0)
    return m


def default_requests() -> List[np.ndarray]:
    """The fixed request script: three distinct solves plus two repeats
    (the repeats pin the body-cache path into every chaos scenario)."""
    return [
        pair_matrix(),
        ring_matrix(),
        uniform_matrix(),
        pair_matrix(),
        ring_matrix(),
    ]


def chaos_config(**overrides: object) -> ServiceConfig:
    """Service tuning for chaos runs: in-process worker (serial
    requests dispatch one batch each — invocation counts stay legible),
    a sub-second solve deadline, and a breaker that half-opens fast."""
    base = dict(
        port=0,
        workers=0,
        solve_deadline=0.25,
        breaker_threshold=3,
        breaker_reset=0.05,
    )
    base.update(overrides)
    return ServiceConfig(**base)  # type: ignore[arg-type]


def chaos_policy(seed: int = 0, **overrides: object) -> RetryPolicy:
    """Client retry tuning: enough attempts and reset budget to outlast
    any transient plan the harness generates."""
    base = dict(
        max_attempts=8,
        base_delay=0.02,
        max_delay=0.25,
        jitter=0.1,
        seed=seed,
        reset_budget=8,
    )
    base.update(overrides)
    return RetryPolicy(**base)  # type: ignore[arg-type]


@dataclass
class ChaosRun:
    """Everything observable from one scripted run under one plan."""

    #: Exact response bytes per request; None where an error surfaced.
    bodies: List[Optional[bytes]] = field(default_factory=list)
    #: ``"ExcType: message"`` per request; empty string on success.
    errors: List[str] = field(default_factory=list)
    #: The full /metrics exposition at the end of the run.
    metrics_text: str = ""
    #: The :data:`FAULT_COUNTERS` subset of /metrics, as ints.
    fault_counters: Dict[str, int] = field(default_factory=dict)
    #: Injector's {"site:kind": fired} map.
    injector_snapshot: Dict[str, int] = field(default_factory=dict)
    #: Client-side backoff retries / connection-reset retries taken.
    client_retries: int = 0
    client_resets: int = 0

    def ok(self) -> bool:
        """True when every scripted request produced a 200 body."""
        return all(body is not None for body in self.bodies)


def parse_metrics(text: str) -> Dict[str, float]:
    """``repro_service_<name> <value>`` lines → {name: value}."""
    return {name: float(value) for name, value in _METRIC_RE.findall(text)}


def fault_counters(text: str) -> Dict[str, int]:
    """The determinism-relevant integer counters out of /metrics."""
    values = parse_metrics(text)
    return {name: int(values[name]) for name in FAULT_COUNTERS}


async def _drive(
    plan: FaultPlan,
    requests: Sequence[np.ndarray],
    policy: RetryPolicy,
    config: ServiceConfig,
) -> ChaosRun:
    run = ChaosRun()
    with activated(plan) as injector:
        service = MappingService(config)
        server = MappingServer(service)
        host, port = await server.start()
        client = AsyncMappingClient(host, port)
        try:
            for matrix in requests:
                try:
                    result = await client.map_matrix_retrying(
                        matrix, policy=policy, sleep=capped_sleep
                    )
                    run.bodies.append(result.raw)
                    run.errors.append("")
                except Exception as exc:  # noqa: BLE001 — recorded, asserted on
                    run.bodies.append(None)
                    run.errors.append(f"{type(exc).__name__}: {exc}")
                    # A failed exchange may leave the connection in an
                    # unknowable half-state; start the next request clean.
                    await client.close()
        finally:
            run.client_retries = client.retries
            run.client_resets = client.resets_retried
            await client.close()
            server.request_shutdown()
            await server.serve_until_shutdown()
        # Metrics are read off the service object (not over HTTP) so the
        # read itself never advances the response-site invocation count.
        _status, _headers, body = service.render_metrics()
        run.metrics_text = body.decode("utf-8")
        run.fault_counters = fault_counters(run.metrics_text)
        run.injector_snapshot = injector.snapshot()
    return run


def run_chaos(
    plan: FaultPlan,
    requests: Optional[Sequence[np.ndarray]] = None,
    policy: Optional[RetryPolicy] = None,
    config: Optional[ServiceConfig] = None,
) -> ChaosRun:
    """Run the fixed request script against a live server under ``plan``."""
    return asyncio.run(
        asyncio.wait_for(
            _drive(
                plan,
                requests if requests is not None else default_requests(),
                policy or chaos_policy(seed=plan.seed),
                config or chaos_config(),
            ),
            timeout=SCENARIO_TIMEOUT,
        )
    )


_BASELINE: Optional[ChaosRun] = None


def baseline() -> ChaosRun:
    """The fault-free reference run (computed once per test session)."""
    global _BASELINE
    if _BASELINE is None:
        _BASELINE = run_chaos(FaultPlan())
        assert _BASELINE.ok(), f"fault-free baseline failed: {_BASELINE.errors}"
    return _BASELINE


def assert_settled_identical(run: ChaosRun, reference: Optional[ChaosRun] = None) -> None:
    """The tentpole assertion: every request succeeded and every response
    is byte-identical to the fault-free baseline."""
    ref = reference if reference is not None else baseline()
    assert run.ok(), f"chaos run surfaced errors: {run.errors}"
    assert run.bodies == ref.bodies, (
        "settled responses diverged from the fault-free run; "
        f"injector snapshot: {run.injector_snapshot}"
    )
