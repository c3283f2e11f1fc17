"""End-to-end smoke check: boot ``repro serve``, round-trip, SIGTERM.

Run via ``make serve-smoke`` (wired into ``make ci``) or directly::

    PYTHONPATH=src python -m repro.service.smoke

Boots the real server as a subprocess on an ephemeral port, round-trips
one mapping through the async client, checks ``/healthz`` and
``/metrics``, then sends SIGTERM and requires a clean (exit 0) drain.
On the way it exercises caller-runs on the real one-worker pool: an
8-thread miss sent while a 128-thread solve holds the pool must be
solved on the event loop, with the bytes an in-process service gives.
Exit status is 0 on success — the CI contract.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from repro.service.app import MappingService, ServiceConfig
from repro.service.client import AsyncMappingClient
from repro.util.rng import as_rng

_LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")

#: An 8-thread pair pattern: threads (2t, 2t+1) communicate heavily.
_SMOKE_MATRIX: List[List[float]] = [
    [0.0 if i == j else (100.0 if i // 2 == j // 2 else 1.0) for j in range(8)]
    for i in range(8)
]


#: A fresh 8-thread ring pattern, the miss sent while the pool is busy.
_RING_MATRIX: List[List[float]] = [
    [0.0 if i == j else (50.0 if (i - j) % 8 in (1, 7) else 1.0) for j in range(8)]
    for i in range(8)
]


def _map_body(matrix: List[List[float]], chips: int = 2) -> bytes:
    doc = {
        "matrix": matrix,
        "topology": {"cores_per_l2": 2, "l2_per_chip": 2, "chips": chips},
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def _large_body() -> bytes:
    """A random n=128 miss on 32 chips: ~0.16 s of pool solve."""
    weights = as_rng(128).random((128, 128)) * 100.0
    weights = weights + weights.T
    for i in range(128):
        weights[i, i] = 0.0
    return _map_body(weights.tolist(), chips=32)


def _server_command() -> List[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", "0", "--workers", "1",
    ]


def _server_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


async def _roundtrip(port: int) -> None:
    async with AsyncMappingClient("127.0.0.1", port) as client:
        result = await asyncio.wait_for(client.map_matrix(_SMOKE_MATRIX), timeout=30)
        assert sorted(result.mapping) == sorted(set(result.mapping)), (
            f"mapping is not injective: {result.mapping}"
        )
        assert len(result.mapping) == 8
        # The pair pattern must land every heavy pair on a shared L2.
        assert result.quality["same_l2"] > 0.9, result.quality
        again = await asyncio.wait_for(client.map_matrix(_SMOKE_MATRIX), timeout=30)
        assert again.raw == result.raw, "identical request bodies must match bytes"
        assert again.cache_state == "body", again.cache_state
        health = await asyncio.wait_for(client.healthz(), timeout=10)
        assert health["status"] == "ok", health
        metrics = await asyncio.wait_for(client.metrics(), timeout=10)
        assert "repro_service_requests_total" in metrics
        assert "repro_service_body_cache_hits_total 1" in metrics, metrics


async def _caller_runs(port: int) -> None:
    """A small miss arriving while the pool is busy is solved on the loop."""
    small = _map_body(_RING_MATRIX)
    async with AsyncMappingClient("127.0.0.1", port) as large_client, \
            AsyncMappingClient("127.0.0.1", port) as client:
        large = asyncio.ensure_future(
            large_client.request("POST", "/map", _large_body())
        )
        while not large.done():
            health = await asyncio.wait_for(client.healthz(), timeout=10)
            if health["pending_solves"] >= 1:
                break  # the large solve is in the pool now
            await asyncio.sleep(0.001)
        status, _headers, raw = await asyncio.wait_for(
            client.request("POST", "/map", small), timeout=30
        )
        assert status == 200, raw
        large_status = (await asyncio.wait_for(large, timeout=60))[0]
        assert large_status == 200, large_status
        metrics = await asyncio.wait_for(client.metrics(), timeout=10)
        assert "repro_service_inline_solves_total 1" in metrics, metrics
    expected = await _in_process_answer(small)
    assert raw == expected, "loop-side solve bytes differ from the in-process answer"


async def _in_process_answer(body: bytes) -> bytes:
    service = MappingService(ServiceConfig(workers=0))
    await service.start()
    try:
        status, _headers, payload = await service.handle_map(body)
    finally:
        await service.aclose()
    assert status == 200, payload
    return payload


def main(timeout: float = 60.0) -> int:
    """Run the smoke sequence; returns a process exit code."""
    proc = subprocess.Popen(
        _server_command(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_server_env(),
        text=True,
    )
    port: Optional[int] = None
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        match = _LISTEN_RE.search(line or "")
        if match is None:
            proc.kill()
            tail = (line or "") + (proc.stdout.read() or "")
            print(f"serve-smoke: server did not announce a port:\n{tail}")
            return 1
        port = int(match.group(2))
        asyncio.run(_roundtrip(port))
        asyncio.run(_caller_runs(port))
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=timeout)
        if code != 0:
            print(f"serve-smoke: server exited {code} after SIGTERM")
            return 1
        print(f"serve-smoke: OK (port {port}, clean SIGTERM drain)")
        return 0
    except Exception as exc:  # noqa: BLE001 — report, kill, fail the gate
        print(f"serve-smoke: FAILED: {type(exc).__name__}: {exc}")
        proc.kill()
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
