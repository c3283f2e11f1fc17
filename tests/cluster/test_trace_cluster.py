"""Cluster tracing: stitched ``GET /trace``, per-stage counter sums.

The in-process tests drive a real :class:`ClusterRouter` over
:class:`InProcessShards` with span rings on and the deterministic step
clock; the subprocess test boots the production shape (``repro serve``
children) twice and requires the stitched export byte-identical.
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys
from contextlib import asynccontextmanager

import repro
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.shards import InProcessShards
from repro.obs.attribution import attribute_trace
from repro.obs.export import validate_chrome_trace
from repro.service.app import ServiceConfig

from .test_router import body_for, distinct_bodies, PAIR8


def run(coro):
    return asyncio.run(coro)


@asynccontextmanager
async def traced_cluster(shards=2, sample_every=1, **router_kwargs):
    config = RouterConfig(
        shards=shards,
        trace_step_clock=True,
        trace_sample_every=sample_every,
        **router_kwargs,
    )
    supervisor = InProcessShards(
        shards,
        config_factory=lambda: ServiceConfig(
            port=0,
            workers=0,
            trace_ring=2048,
            trace_step_clock=True,
            trace_sample_every=sample_every,
        ),
    )
    router = ClusterRouter(config, supervisor=supervisor)
    await router.start()
    try:
        yield router
    finally:
        await router.aclose()


def spans_by_pid(doc):
    out = {}
    for event in doc["traceEvents"]:
        if event.get("ph") == "X":
            out.setdefault(event["pid"], []).append(event)
    return out


def unlabeled_rows(text):
    rows = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            rows[name] = int(value)
        except ValueError:
            continue
    return rows


class TestStitchedTrace:
    def test_merged_doc_has_one_trace_and_correct_parentage(self):
        async def scenario():
            async with traced_cluster(shards=2) as router:
                for body in distinct_bodies(8):
                    status, _, _ = await router.handle_map(body)
                    assert status == 200
                status, headers, raw = await router.render_trace()
                assert status == 200
                assert headers["Content-Type"].startswith("application/json")
                doc = json.loads(raw.decode("utf-8"))
                validate_chrome_trace(doc)
                assert doc["otherData"]["trace_id"] == "router"
                assert doc["otherData"]["clock"] == "step"
                assert doc["otherData"]["stitched_shards"] == [
                    "shard-0", "shard-1"
                ]
                by_pid = spans_by_pid(doc)
                assert set(by_pid) >= {1, 2, 3}, "both shards must appear"
                # Every shard request span must walk up, through its
                # re-parented root, to a router `route` span on pid 1.
                by_id = {
                    e["args"]["span_id"]: e
                    for pid in by_pid
                    for e in by_pid[pid]
                }
                shard_requests = [
                    e
                    for pid, events in by_pid.items()
                    if pid != 1
                    for e in events
                    if e["name"] == "request:/map"
                ]
                assert len(shard_requests) == 8
                for event in shard_requests:
                    cursor = event
                    for _ in range(16):
                        parent = cursor["args"]["parent_id"]
                        if parent == 0:
                            break
                        cursor = by_id[parent]
                    assert cursor["name"] == "route" and cursor["pid"] == 1, (
                        f"shard span {event['args']['span_id']} does not "
                        f"reach a router route span (stopped at "
                        f"{cursor['name']})"
                    )

        run(scenario())

    def test_attribution_decomposes_every_routed_request(self):
        async def scenario():
            async with traced_cluster(shards=2) as router:
                for body in distinct_bodies(6):
                    await router.handle_map(body)
                _, _, raw = await router.render_trace()
                result = attribute_trace(json.loads(raw.decode("utf-8")))
                assert result["requests"] == 6
                assert result["unit"] == "step"
                stage_ms = result["p50"]["stage_ms"]
                # Router- and shard-side stages both present: the merge
                # really crossed the process boundary.  (Under the step
                # clock the forward span's self-time can be fully covered
                # by the rebased shard subtree, so presence is the claim,
                # not positivity.)
                assert "forward" in stage_ms
                assert stage_ms.get("solve", 0) > 0

        run(scenario())

    def test_dead_shard_skipped_not_fatal(self):
        async def scenario():
            async with traced_cluster(
                shards=2, restart_dead_shards=False
            ) as router:
                status, headers, _ = await router.handle_map(body_for(PAIR8))
                assert status == 200
                await router.supervisor.kill(headers["X-Repro-Shard"])
                await router.handle_map(body_for(PAIR8))
                status, _, raw = await router.render_trace()
                assert status == 200
                doc = json.loads(raw.decode("utf-8"))
                assert len(doc["otherData"]["stitched_shards"]) == 1

        run(scenario())


class TestTraceCounters:
    def test_aggregated_rows_are_exact_sums_of_shard_tracers(self):
        async def scenario():
            async with traced_cluster(shards=2) as router:
                for body in distinct_bodies(8):
                    await router.handle_map(body)
                status, _, raw = await router.render_metrics()
                assert status == 200
                rows = unlabeled_rows(raw.decode("utf-8"))
                services = router.supervisor.services.values()
                assert rows["repro_service_trace_spans_total"] == sum(
                    s.tracer.started_total for s in services
                )
                assert rows["repro_service_trace_sampled_out_total"] == sum(
                    s.tracer.sampled_out_total for s in services
                )
                for stage in ("canonicalize", "queue", "solve", "render"):
                    key = f"repro_service_trace_stage_{stage}_total"
                    assert rows[key] == sum(
                        s.tracer.stage_counts.get(stage, 0) for s in services
                    ), key
                    assert rows[key] > 0, f"{key} never incremented"
                # The router's own rows render beside the aggregation.
                tracer = router.tracer
                assert rows["repro_cluster_trace_spans_total"] == (
                    tracer.started_total
                )
                assert rows["repro_cluster_trace_stage_route_total"] == (
                    tracer.stage_counts["route"]
                )
                assert rows["repro_cluster_trace_stage_forward_total"] == (
                    tracer.stage_counts["forward"]
                )

        run(scenario())

    def test_sampling_reports_sampled_out_total(self):
        async def scenario():
            async with traced_cluster(shards=2, sample_every=2) as router:
                for body in distinct_bodies(8):
                    await router.handle_map(body)
                status, _, raw = await router.render_metrics()
                assert status == 200
                rows = unlabeled_rows(raw.decode("utf-8"))
                services = router.supervisor.services.values()
                expected = sum(s.tracer.sampled_out_total for s in services)
                assert expected > 0, "1-in-2 sampling must drop spans"
                assert rows["repro_service_trace_sampled_out_total"] == expected
                assert rows["repro_cluster_trace_sampled_out_total"] == (
                    router.tracer.sampled_out_total
                )
                assert router.tracer.sampled_out_total > 0

        run(scenario())


#: Boots the production cluster shape (subprocess shards, step clock),
#: routes three distinct bodies, and prints the stitched trace document.
_DRIVER = """
import asyncio, json, sys
import numpy as np
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.util.rng import as_rng

def bodies():
    rng = as_rng(2012)
    out = []
    for _ in range(3):
        a = rng.random((8, 8)) * 100.0
        m = (a + a.T) / 2.0
        np.fill_diagonal(m, 0.0)
        out.append(json.dumps({"matrix": m.tolist()},
                              sort_keys=True).encode("utf-8"))
    return out

async def main():
    router = ClusterRouter(RouterConfig(
        shards=2, workers_per_shard=0, trace_step_clock=True))
    await router.start()
    try:
        for body in bodies():
            status, _, _ = await router.handle_map(body)
            assert status == 200, status
        status, _, raw = await router.render_trace()
        assert status == 200, status
        sys.stdout.buffer.write(raw)
    finally:
        await router.aclose()

asyncio.run(main())
"""


class TestSubprocessCluster:
    def _run_driver(self):
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _DRIVER],
            env=env,
            capture_output=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        return proc.stdout

    def test_two_runs_byte_identical_with_stitched_parentage(self):
        first = self._run_driver()
        second = self._run_driver()
        assert first == second, "stitched step-clock trace must be stable"
        doc = json.loads(first.decode("utf-8"))
        validate_chrome_trace(doc)
        assert doc["otherData"]["trace_id"] == "router"
        assert doc["otherData"]["stitched_shards"]
        by_id = {
            e["args"]["span_id"]: e
            for e in doc["traceEvents"]
            if e.get("ph") == "X"
        }
        requests = [
            e
            for e in by_id.values()
            if e["name"] == "request:/map" and e["pid"] != 1
        ]
        assert len(requests) == 3
        for event in requests:
            parent = by_id[event["args"]["parent_id"]]
            assert parent["name"] == "forward" and parent["pid"] == 1
        result = attribute_trace(doc)
        assert result["requests"] == 3
