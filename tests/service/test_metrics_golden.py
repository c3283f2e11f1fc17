"""Golden ``GET /metrics`` bytes for the service and the cluster router.

Four expositions, each read over real sockets under an injected clock:

* ``service.fresh`` — a fresh :class:`MappingService` (the full bytes);
* ``service.scripted`` — the same after a miss, an exact repeat, a
  relabelled repeat, a 400 and a ``/map/delta``;
* ``router.fresh`` / ``router.scripted`` — the full bytes of a fresh
  :class:`ClusterRouter` over two :class:`InProcessShards` (the summed
  shard rows, then the ``repro_cluster_`` rows), and the same after a
  forward and a router answer.

In the service scenario a solver double advances the clock by
:data:`SOLVE_SECONDS` per batch, so the latency quantiles render a
non-zero value.  Row order, row kinds and value formats are all part of
the pin.  ``data/metrics_golden.json``
was written by the code that preceded the single metrics registry;
regenerate it only for a deliberate change of the exposition::

    PYTHONPATH=src python -m tests.service.test_metrics_golden --write
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np

from repro.cluster.router import ClusterRouter, RouterConfig, RouterServer
from repro.cluster.shards import InProcessShards
from repro.service import worker
from repro.service.app import MappingService, ServiceConfig
from repro.service.client import AsyncMappingClient
from repro.service.http import MappingServer

GOLDEN = Path(__file__).with_name("data") / "metrics_golden.json"

#: Injected-clock seconds one solve batch takes.
SOLVE_SECONDS = 0.004

PAIR8 = [
    [0.0 if i == j else (100.0 if i // 2 == j // 2 else 1.0) for j in range(8)]
    for i in range(8)
]


class StepClock:
    """Injected clock that moves only when a test advances ``now``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _body(matrix) -> bytes:
    return json.dumps({"matrix": matrix}, separators=(",", ":")).encode("utf-8")


def _relabelled(matrix) -> list:
    perm = [3, 0, 6, 1, 7, 2, 5, 4]
    return np.asarray(matrix)[np.ix_(perm, perm)].tolist()


async def _get_metrics(client: AsyncMappingClient) -> str:
    status, _headers, raw = await client.request("GET", "/metrics")
    assert status == 200
    return raw.decode("utf-8")


async def _service_expositions() -> Dict[str, str]:
    clock = StepClock()

    def solve(batch):
        clock.now += SOLVE_SECONDS
        return worker.solve_batch(batch)

    service = MappingService(
        ServiceConfig(port=0, workers=0), clock=clock, solve_batch_fn=solve
    )
    server = MappingServer(service)
    host, port = await server.start()
    out: Dict[str, str] = {}
    try:
        async with AsyncMappingClient(host, port) as client:
            out["service.fresh"] = await _get_metrics(client)
            body = _body(PAIR8)
            status, headers, raw = await client.request("POST", "/map", body)
            assert (status, headers["x-repro-cache"]) == (200, "miss")
            status, headers, _ = await client.request("POST", "/map", body)
            assert (status, headers["x-repro-cache"]) == (200, "body")
            status, headers, _ = await client.request(
                "POST", "/map", _body(_relabelled(PAIR8))
            )
            assert (status, headers["x-repro-cache"]) == (200, "solve")
            status, _, _ = await client.request(
                "POST", "/map", _body([[0.0, 1.0, 2.0]])
            )
            assert status == 400
            base = json.loads(raw)
            delta = await client.map_delta(
                base["key"],
                base["perm"],
                [[0, 4, 300.0], [1, 5, 300.0], [2, 6, 300.0], [3, 7, 300.0]],
                base["mapping"],
                decay=0.05,
            )
            assert delta.remap
            out["service.scripted"] = await _get_metrics(client)
    finally:
        server.request_shutdown()
        await server.serve_until_shutdown()
    return out


async def _router_expositions() -> Dict[str, str]:
    clock = StepClock()
    router = ClusterRouter(
        RouterConfig(port=0, shards=2),
        supervisor=InProcessShards(2, clock=clock),
        clock=clock,
    )
    server = RouterServer(router)
    host, port = await server.start()
    out: Dict[str, str] = {}
    try:
        async with AsyncMappingClient(host, port) as client:
            out["router.fresh"] = await _get_metrics(client)
            body = _body(PAIR8)
            status, headers, _ = await client.request("POST", "/map", body)
            assert (status, headers["x-repro-cache"]) == (200, "miss")
            status, headers, _ = await client.request("POST", "/map", body)
            assert (status, headers["x-repro-cache"]) == (200, "body")
            out["router.scripted"] = await _get_metrics(client)
    finally:
        server.request_shutdown()
        await server.serve_until_shutdown()
    return out


def expositions() -> Dict[str, str]:
    """All four pinned expositions, each from its own fresh stack."""
    out = asyncio.run(_service_expositions())
    out.update(asyncio.run(_router_expositions()))
    return out


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestServiceExposition:
    def test_fresh_and_scripted_bytes_match_golden(self):
        golden = _golden()
        got = asyncio.run(_service_expositions())
        for case in ("service.fresh", "service.scripted"):
            assert got[case] == golden[case], case


class TestRouterExposition:
    def test_fresh_and_scripted_bytes_match_golden(self):
        golden = _golden()
        got = asyncio.run(_router_expositions())
        for case in ("router.fresh", "router.scripted"):
            assert got[case] == golden[case], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.service.test_metrics_golden --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(expositions(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
