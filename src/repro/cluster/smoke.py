"""End-to-end cluster smoke: boot ``repro route``, kill a shard, drain.

Run via ``make cluster-smoke`` (wired into ``make ci``) or directly::

    PYTHONPATH=src python -m repro.cluster.smoke

Boots the real router as a subprocess on an ephemeral port with two
shard children and a fault plan that kills the forward target on the
second ``/map`` forward.  The sequence pins the tentpole contracts:

1. a cold solve is replicated to the sibling shard
   (``replication_publish_total`` / ``replication_push_total``);
2. an exact repeat is answered at the router, byte-identically and
   without a forward, naming the solver in ``X-Repro-Shard``;
3. the same matrix respelled (new bytes, same canonical key and owner)
   is forwarded, the injected shard death re-routes it via the ring,
   and the settled response is **byte-identical** to the pre-kill one
   (shard answers are pure functions of the body, and the sibling is
   warm);
4. the first body is still answered byte-identically while the shard
   that produced it is dead;
5. the dead shard is restarted with the replica store replayed and
   ``/healthz`` returns to ``ok``;
6. SIGTERM drains the router *and* both shard children cleanly
   (exit 0, no orphan processes).

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
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.faults.plan import SITE_CLUSTER_FORWARD, FaultEvent, FaultPlan
from repro.obs.metrics import parse_exposition
from repro.service.client import AsyncMappingClient
from repro.service.smoke import _SMOKE_MATRIX

_LISTEN_RE = re.compile(r"router listening on http://([0-9.]+):(\d+)")

#: Boot lines scanned for the router announcement (fault-plan banner and
#: per-shard endpoint lines surround it).
_MAX_BOOT_LINES = 20

#: Kill the forward target on the second forward: request 1 is the cold
#: solve (replicated), request 2 is a repeat the router answers itself,
#: request 3 respells the matrix, dies mid-route and must settle
#: identically on the sibling.
_KILL_PLAN = FaultPlan(
    seed=2012,
    events=(FaultEvent(site=SITE_CLUSTER_FORWARD, invocation=2, kind="crash"),),
    note="cluster-smoke: kill the forward target on forward 2",
)


def _router_command(plan_path: str) -> List[str]:
    return [
        sys.executable, "-m", "repro", "route",
        "--host", "127.0.0.1", "--port", "0", "--shards", "2",
        "--workers-per-shard", "0",
        "--fault-plan", plan_path,
    ]


def _router_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


async def _metrics(client: AsyncMappingClient) -> Dict[str, Any]:
    """Every row of the router's /metrics exposition, by series name."""
    status, _, raw = await asyncio.wait_for(
        client.request("GET", "/metrics"), timeout=30
    )
    assert status == 200, status
    rows = parse_exposition(raw.decode("utf-8"))
    return {series: value for series, (_kind, value) in rows.items()}


async def _exercise(port: int) -> None:
    async with AsyncMappingClient("127.0.0.1", port) as client:
        body = json.dumps(
            {"matrix": _SMOKE_MATRIX}, sort_keys=True
        ).encode("utf-8")
        respelled = json.dumps(
            {"matrix": _SMOKE_MATRIX}, separators=(",", ":")
        ).encode("utf-8")
        assert respelled != body

        # 1. Cold solve: replicated to the sibling before returning.
        status, headers, first = await asyncio.wait_for(
            client.request("POST", "/map", body), timeout=60
        )
        assert status == 200, (status, first[:200])
        assert headers.get("x-repro-cache") == "miss", headers
        solver = headers.get("x-repro-shard")
        assert solver, headers

        # 2. Same bytes again: answered at the router, no forward.
        status, headers, warm = await asyncio.wait_for(
            client.request("POST", "/map", body), timeout=30
        )
        assert status == 200 and warm == first
        assert headers.get("x-repro-cache") == "body", headers
        assert headers.get("x-repro-shard") == solver, headers
        counters = await _metrics(client)
        assert counters.get("repro_cluster_body_cache_hits_total") == 1, counters
        assert counters.get("repro_cluster_routed_total") == 1, counters

        # 3. The respelled matrix is forwarded; the injected crash kills
        #    the solver mid-route and the sibling (warmed by replication)
        #    settles the request byte-identically.
        status, headers, settled = await asyncio.wait_for(
            client.request("POST", "/map", respelled), timeout=60
        )
        assert status == 200, (status, settled[:200])
        survivor = headers.get("x-repro-shard")
        assert survivor and survivor != solver, (solver, headers)
        assert headers.get("x-repro-cache") == "solve", headers
        assert settled == first, "settled response must be byte-identical"

        # 4. The first bytes are still answered while their shard is dead.
        status, headers, replay = await asyncio.wait_for(
            client.request("POST", "/map", body), timeout=30
        )
        assert status == 200 and replay == first
        assert headers.get("x-repro-shard") == solver, headers

        # Exact fault/replication/answer counters.
        counters = await _metrics(client)
        expected = {
            "repro_cluster_shard_kills_total": 1,
            "repro_cluster_shard_down_total": 1,
            "repro_cluster_reroutes_total": 1,
            "repro_cluster_replication_publish_total": 1,
            "repro_cluster_replication_push_total": 1,
            "repro_cluster_faults_injected_total": 1,
            "repro_cluster_quota_throttled_total": 0,
            "repro_cluster_unroutable_total": 0,
            "repro_cluster_routed_total": 2,
            "repro_cluster_body_cache_hits_total": 2,
        }
        for name, value in expected.items():
            assert counters.get(name) == value, (name, counters.get(name))

        # 5. The dead shard comes back (replica store replayed) and the
        #    cluster reports healthy again.
        for _ in range(150):
            status, _, raw = await client.request("GET", "/healthz")
            if status == 200 and json.loads(raw)["status"] == "ok":
                break
            await asyncio.sleep(0.2)
        else:
            raise AssertionError("cluster never returned to ok after restart")
        counters = await _metrics(client)
        assert counters.get("repro_cluster_shard_restarts_total") == 1, counters
        assert counters.get("repro_cluster_replication_replay_total") == 1, counters
        assert counters.get("repro_cluster_shards_up") == 2, counters


def main(timeout: float = 120.0) -> int:
    """Run the cluster smoke sequence; returns a process exit code."""
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as tmp:
        plan_path = os.path.join(tmp, "plan.json")
        _KILL_PLAN.save(plan_path)
        proc = subprocess.Popen(
            _router_command(plan_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_router_env(),
            text=True,
        )
        port: Optional[int] = None
        try:
            assert proc.stdout is not None
            banner: List[str] = []
            for _ in range(_MAX_BOOT_LINES):
                line = proc.stdout.readline()
                if not line:
                    break
                banner.append(line)
                match = _LISTEN_RE.search(line)
                if match:
                    port = int(match.group(2))
                    break
            if port is None:
                proc.kill()
                print(
                    "cluster-smoke: router did not announce a port:\n"
                    + "".join(banner)
                )
                return 1
            asyncio.run(_exercise(port))
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=timeout)
            if code != 0:
                print(f"cluster-smoke: router exited {code} after SIGTERM")
                return 1
            print(
                f"cluster-smoke: OK (port {port}, repeats answered at the "
                "router, shard killed and re-routed byte-identically, "
                "clean SIGTERM drain)"
            )
            return 0
        except Exception as exc:  # noqa: BLE001 — report, kill, fail the gate
            print(f"cluster-smoke: FAILED: {type(exc).__name__}: {exc}")
            proc.kill()
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
