"""Load bench for the sharded cluster: scaling rows, replication, chaos.

Boots real ``repro route`` subprocess clusters (router + N ``repro
serve`` shard children) and records four kinds of evidence into
``BENCH_cluster.json`` (shared envelope with ``BENCH_service.json``;
see :mod:`cluster_common`):

1. **Scaling rows** — warm throughput / p50 / p99 for each shard count
   (default 1/2/4/8), driven by M concurrent *generator processes*
   (real ``multiprocessing``, one asyncio client loop each).  Each
   generator pins its distinct body to the owning shard smart-client
   style: learn the owner from the router's ``X-Repro-Shard`` response
   header plus ``GET /ring``, then drive that shard's socket directly —
   the scaling row measures shard capacity, not router single-socket
   forwarding.  ``host_cpus`` is recorded next to the rows: on a 1-CPU
   host the rows *cannot* show CPU scaling and the envelope says so.
2. **Routing overhead** — warm p50 through the router vs straight to
   the owning shard (same body, same socket discipline).  A repeated
   body is answered at the router from its route-cache entry, so the
   row compares a router answer with a direct shard hit.
3. **Replication** — after one cold solve per distinct body through the
   router, every *non-owner* shard must answer the same body warm
   (``replication_hit_rate`` — the cluster-wide cache-warm contract).
4. **Chaos row** — a fault plan kills the forward target mid-sequence
   (on a respelling of the solved matrix, since exact repeats never
   reach a shard); the settled response must be byte-identical to the
   pre-kill answer, the original bytes must still be answered while
   their shard is dead, and the router's fault counters must match the
   plan exactly.

Acceptance floors (env-tunable; conservative because the scaling rows
are host-parallelism-bound):

    REPRO_BENCH_CLUSTER_RPS_FLOOR   warm rps floor per row   (default 100)
    REPRO_BENCH_CLUSTER_P99_MS      warm p99 ceiling, ms     (default 250)

Shard counts and generator count are tunable too:

    REPRO_BENCH_CLUSTER_SHARDS      comma list (default "1,2,4,8")
    REPRO_BENCH_CLUSTER_GENERATORS  generator processes      (default 4)
    REPRO_BENCH_CLUSTER_REQUESTS    requests per generator   (default 150)

Runs standalone (``make bench-cluster``) or under pytest.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from cluster_common import (
    bench_doc,
    distinct_matrices,
    env_floor,
    ledger_append,
    pair_matrix,
    quantile_ms,
)
from repro.faults.plan import SITE_CLUSTER_FORWARD, FaultEvent, FaultPlan
from repro.service.client import AsyncMappingClient

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_cluster.json"

THREADS = 8
_LISTEN_RE = re.compile(r"router listening on http://([0-9.]+):(\d+)")


def _shard_counts() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_CLUSTER_SHARDS", "1,2,4,8")
    return [int(x) for x in raw.split(",") if x.strip()]


def _generators() -> int:
    return int(os.environ.get("REPRO_BENCH_CLUSTER_GENERATORS", "4"))


def _requests_per_generator() -> int:
    return int(os.environ.get("REPRO_BENCH_CLUSTER_REQUESTS", "150"))


# -- cluster lifecycle (router subprocess, same contract as the smoke) --------


class _Cluster:
    """One ``repro route`` subprocess plus its announced port."""

    def __init__(self, shards: int, fault_plan: Optional[str] = None):
        cmd = [
            sys.executable, "-m", "repro", "route",
            "--host", "127.0.0.1", "--port", "0",
            "--shards", str(shards), "--workers-per-shard", "0",
        ]
        if fault_plan:
            cmd += ["--fault-plan", fault_plan]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        banner: List[str] = []
        for _ in range(40):
            line = self.proc.stdout.readline()
            if not line:
                break
            banner.append(line)
            match = _LISTEN_RE.search(line)
            if match:
                return int(match.group(2))
        self.proc.kill()
        raise RuntimeError(
            "router did not announce a port:\n" + "".join(banner)
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)

    def __enter__(self) -> "_Cluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# -- generator processes ------------------------------------------------------


def _generator_main(
    port: int,
    gen_id: int,
    requests: int,
    body: bytes,
    out_q: "multiprocessing.Queue",
) -> None:
    """One load generator: pin the body's owner shard, hammer it warm.

    Runs in its own OS process; returns (gen_id, shard_id, latencies,
    wall_seconds) through the queue.
    """

    async def run() -> Tuple[str, List[float], float]:
        router = AsyncMappingClient("127.0.0.1", port)
        # Request 1 via the router: cold solve + owner discovery.
        status, headers, _ = await router.request("POST", "/map", body)
        assert status == 200, status
        shard_id = headers["x-repro-shard"]
        status, _, ring_raw = await router.request("GET", "/ring")
        assert status == 200, status
        endpoint = json.loads(ring_raw)["shards"][shard_id]
        await router.close()
        # Smart-client mode: drive the owning shard directly so the
        # timed region measures shard capacity under multi-process load.
        shard = AsyncMappingClient(endpoint["host"], endpoint["port"])
        status, _, _ = await shard.request("POST", "/map", body)
        assert status == 200, status
        latencies: List[float] = []
        t0 = time.perf_counter()
        for _ in range(requests):
            t1 = time.perf_counter()
            status, _, _ = await shard.request("POST", "/map", body)
            latencies.append(time.perf_counter() - t1)
            assert status == 200, status
        wall = time.perf_counter() - t0
        await shard.close()
        return shard_id, latencies, wall

    shard_id, latencies, wall = asyncio.run(run())
    out_q.put((gen_id, shard_id, latencies, wall))


def _scaling_row(shards: int) -> Dict[str, Any]:
    """One BENCH_cluster row: M generator processes vs an N-shard cluster."""
    generators = _generators()
    requests = _requests_per_generator()
    bodies = [
        json.dumps({"matrix": m}, sort_keys=True).encode("utf-8")
        for m in distinct_matrices(generators, THREADS, seed=shards)
    ]
    with _Cluster(shards) as cluster:
        ctx = multiprocessing.get_context()
        out_q: "multiprocessing.Queue" = ctx.Queue()
        procs = [
            ctx.Process(
                target=_generator_main,
                args=(cluster.port, g, requests, bodies[g], out_q),
            )
            for g in range(generators)
        ]
        t0 = time.perf_counter()
        for p in procs:
            p.start()
        results = [out_q.get(timeout=600) for _ in procs]
        for p in procs:
            p.join(timeout=60)
        wall = time.perf_counter() - t0
    latencies = [lat for _, _, lats, _ in results for lat in lats]
    shards_hit = {shard_id for _, shard_id, _, _ in results}
    total = len(latencies)
    return {
        "shards": shards,
        "generators": generators,
        "requests": total,
        "distinct_shards_hit": len(shards_hit),
        "rps": total / wall,
        "p50_ms": quantile_ms(latencies, 0.50),
        "p99_ms": quantile_ms(latencies, 0.99),
        "mean_ms": statistics.fmean(latencies) * 1000.0,
    }


# -- single-purpose passes ----------------------------------------------------


async def _routing_overhead(port: int) -> Dict[str, Any]:
    """Warm p50 of a router answer vs a direct hit on the owning shard.

    The routed p50 is also decomposed into per-stage milliseconds from
    the router's stitched ``GET /trace`` (distributed tracing +
    :mod:`repro.obs.attribution`), so ``routing_overhead_ms`` comes with
    the *where* — route/ring.lookup/forward self-time on the router,
    queue/solve/render on the shard — not just the total.
    """
    body = json.dumps({"matrix": pair_matrix(THREADS)}, sort_keys=True).encode()
    router = AsyncMappingClient("127.0.0.1", port)
    status, headers, _ = await router.request("POST", "/map", body)
    assert status == 200
    shard_id = headers["x-repro-shard"]
    status, _, ring_raw = await router.request("GET", "/ring")
    endpoint = json.loads(ring_raw)["shards"][shard_id]

    via_router: List[float] = []
    for _ in range(100):
        t0 = time.perf_counter()
        status, _, _ = await router.request("POST", "/map", body)
        via_router.append(time.perf_counter() - t0)
        assert status == 200
    status, _, trace_raw = await router.request("GET", "/trace")
    assert status == 200
    await router.close()

    shard = AsyncMappingClient(endpoint["host"], endpoint["port"])
    direct: List[float] = []
    for _ in range(100):
        t0 = time.perf_counter()
        status, _, _ = await shard.request("POST", "/map", body)
        direct.append(time.perf_counter() - t0)
        assert status == 200
    await shard.close()

    from repro.obs.attribution import attribute_trace
    from repro.obs.export import validate_chrome_trace

    trace_doc = json.loads(trace_raw.decode("utf-8"))
    validate_chrome_trace(trace_doc)
    attribution = attribute_trace(trace_doc)
    p50_attr = attribution["p50"]
    stage_sum = sum(p50_attr["stage_ms"].values())
    assert abs(stage_sum - p50_attr["total_ms"]) <= 0.05 * p50_attr["total_ms"], (
        f"attribution stages sum to {stage_sum:.4f} ms but the traced p50 "
        f"total is {p50_attr['total_ms']:.4f} ms (must agree within 5%)"
    )

    router_p50 = quantile_ms(via_router, 0.50)
    direct_p50 = quantile_ms(direct, 0.50)
    return {
        "routed_p50_ms": router_p50,
        "direct_p50_ms": direct_p50,
        "routing_overhead_ms": router_p50 - direct_p50,
        # Per-stage decomposition of the traced routed p50: where the
        # request actually spent its time (stage names with dots
        # flattened for the ledger).
        "routed_stage_ms": {
            stage.replace(".", "_"): value
            for stage, value in p50_attr["stage_ms"].items()
        },
        "routed_traced_p50_ms": p50_attr["total_ms"],
        # The percentage is demoted to context: the direct baseline is a
        # sub-millisecond cache hit, so a fraction of a millisecond of
        # proxy work reads as a huge ratio while being absolutely tiny.
        "routing_overhead_pct": 100.0 * (router_p50 / direct_p50 - 1.0),
        "routing_overhead_pct_note": (
            "ratio against a ~0.1 ms direct warm hit; judge the absolute "
            "routing_overhead_ms and routed_stage_ms breakdown instead"
        ),
    }


async def _replication_hit_rate(port: int, keys: int = 8) -> Dict[str, float]:
    """Cold-solve K bodies via the router; every non-owner must be warm."""
    bodies = [
        json.dumps({"matrix": m}, sort_keys=True).encode("utf-8")
        for m in distinct_matrices(keys, THREADS, seed=777)
    ]
    router = AsyncMappingClient("127.0.0.1", port)
    owners: List[str] = []
    for body in bodies:
        status, headers, _ = await router.request("POST", "/map", body)
        assert status == 200 and headers["x-repro-cache"] == "miss"
        owners.append(headers["x-repro-shard"])
    status, _, ring_raw = await router.request("GET", "/ring")
    shards = json.loads(ring_raw)["shards"]
    await router.close()

    checks = 0
    hits = 0
    for body, owner in zip(bodies, owners):
        for shard_id, endpoint in shards.items():
            if shard_id == owner:
                continue
            shard = AsyncMappingClient(endpoint["host"], endpoint["port"])
            status, headers, _ = await shard.request("POST", "/map", body)
            await shard.close()
            assert status == 200
            checks += 1
            if headers.get("x-repro-cache") != "miss":
                hits += 1
    return {
        "replication_keys": float(keys),
        "replication_checks": float(checks),
        "replication_hit_rate": hits / checks if checks else 0.0,
    }


async def _chaos_row(port: int) -> Dict[str, Any]:
    """Kill the forward target mid-sequence; settled bytes must match."""
    matrix = pair_matrix(THREADS)
    body = json.dumps({"matrix": matrix}, sort_keys=True).encode()
    respelled = json.dumps({"matrix": matrix}, separators=(",", ":")).encode()
    client = AsyncMappingClient("127.0.0.1", port)
    status, headers, first = await client.request("POST", "/map", body)
    assert status == 200 and headers["x-repro-cache"] == "miss"
    solver = headers["x-repro-shard"]
    # The repeat is answered at the router: no forward.
    status, headers, _ = await client.request("POST", "/map", body)
    assert status == 200 and headers["x-repro-cache"] == "body"
    # The respelled matrix is the second /map forward and trips the
    # injected crash: solver dies, the ring re-routes, the replicated
    # sibling answers.
    status, headers, settled = await client.request("POST", "/map", respelled)
    assert status == 200, status
    survivor = headers["x-repro-shard"]
    # The original bytes are still answered while their shard is dead.
    status, headers, replay = await client.request("POST", "/map", body)
    assert status == 200 and headers["x-repro-shard"] == solver, headers
    status, _, metrics_raw = await client.request("GET", "/metrics")
    await client.close()
    counters: Dict[str, int] = {}
    for line in metrics_raw.decode("utf-8").splitlines():
        if line.startswith("repro_cluster_") and "{" not in line:
            name, _, value = line.partition(" ")
            try:
                counters[name] = int(value)
            except ValueError:
                pass
    return {
        "byte_identical": settled == first and replay == first,
        "solver": solver,
        "survivor": survivor,
        "shard_kills_total": counters.get("repro_cluster_shard_kills_total"),
        "reroutes_total": counters.get("repro_cluster_reroutes_total"),
        "faults_injected_total": counters.get(
            "repro_cluster_faults_injected_total"
        ),
        "replication_push_total": counters.get(
            "repro_cluster_replication_push_total"
        ),
    }


def _run_chaos() -> Dict[str, Any]:
    plan = FaultPlan(
        seed=2012,
        events=(
            FaultEvent(site=SITE_CLUSTER_FORWARD, invocation=2, kind="crash"),
        ),
        note="bench-cluster chaos row",
    )
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        plan_path = os.path.join(tmp, "plan.json")
        plan.save(plan_path)
        with _Cluster(2, fault_plan=plan_path) as cluster:
            return asyncio.run(_chaos_row(cluster.port))


def run_cluster_bench() -> Dict[str, Any]:
    """All passes; asserts the contracts, persists BENCH_cluster.json."""
    rows = [_scaling_row(n) for n in _shard_counts()]

    with _Cluster(2) as cluster:
        overhead = asyncio.run(_routing_overhead(cluster.port))
        replication = asyncio.run(_replication_hit_rate(cluster.port))
    chaos = _run_chaos()

    rps_floor = env_floor("REPRO_BENCH_CLUSTER_RPS_FLOOR", 100.0)
    p99_ceiling = env_floor("REPRO_BENCH_CLUSTER_P99_MS", 250.0)
    for row in rows:
        assert row["rps"] >= rps_floor, (
            f"{row['shards']}-shard warm throughput {row['rps']:.0f} req/s "
            f"below the {rps_floor:.0f} req/s floor"
        )
        assert row["p99_ms"] < p99_ceiling, (
            f"{row['shards']}-shard warm p99 {row['p99_ms']:.2f} ms "
            f"breaches the {p99_ceiling:.0f} ms ceiling"
        )
    # The scaling contract (4 shards >= 3x the 1-shard baseline) is a
    # claim about parallel hardware; enforce it when the host can
    # actually run 4 shards in parallel, and record an honest note
    # instead of a fake pass when it cannot.
    by_shards = {row["shards"]: row for row in rows}
    host_cpus = os.cpu_count() or 1
    scaling_note = ""
    if 1 in by_shards and 4 in by_shards:
        speedup = by_shards[4]["rps"] / by_shards[1]["rps"]
        if host_cpus >= 4:
            floor = env_floor("REPRO_BENCH_CLUSTER_SCALING_FLOOR", 3.0)
            assert speedup >= floor, (
                f"4-shard throughput is {speedup:.2f}x the 1-shard "
                f"baseline on a {host_cpus}-cpu host; floor is {floor:.1f}x"
            )
        else:
            scaling_note = (
                f"host has {host_cpus} cpu(s): shard processes time-share "
                "one core, so the rows measure overhead, not CPU scaling; "
                "the 3x@4-shards gate needs >= 4 cpus"
            )
    assert replication["replication_hit_rate"] == 1.0, (
        "replication must warm every sibling after a single cold solve; "
        f"hit rate was {replication['replication_hit_rate']:.3f}"
    )
    assert chaos["byte_identical"], (
        "settled response after the injected shard kill must be "
        "byte-identical to the pre-kill response"
    )
    assert chaos["shard_kills_total"] == 1, chaos
    assert chaos["reroutes_total"] == 1, chaos
    assert chaos["faults_injected_total"] == 1, chaos
    assert chaos["survivor"] != chaos["solver"], chaos

    stats: Dict[str, Any] = {
        "scaling": rows,
        "scaling_note": scaling_note,
        **overhead,
        **replication,
        "chaos": chaos,
    }
    doc = bench_doc(
        "cluster", routers=1, shards=max(_shard_counts()), stats=stats
    )
    RESULT_PATH.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    ledger_append(doc, history=str(REPO_ROOT / "BENCH_HISTORY.jsonl"))
    return doc


def test_cluster_throughput(out_dir):
    doc = run_cluster_bench()
    from conftest import save_artifact

    save_artifact(
        out_dir,
        "cluster_throughput.txt",
        json.dumps(doc, sort_keys=True, indent=2),
    )


if __name__ == "__main__":
    result = run_cluster_bench()
    print(json.dumps(result, sort_keys=True, indent=2))
