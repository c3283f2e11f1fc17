"""Trace-context propagation: env pickup, payload headers, pool workers."""

import concurrent.futures
import json

import numpy as np
import pytest

from repro.obs.context import (
    TRACE_ENV_VAR,
    TraceContext,
    context_from_env,
    install_context,
)
from repro.obs.trace import Tracer, _reset_for_tests, tracing
from repro.service import worker

SPEC = (2, 2, 2)


@pytest.fixture(autouse=True)
def clean_global_tracer():
    _reset_for_tests()
    yield
    _reset_for_tests()


def pair_matrix(n=8):
    m = np.zeros((n, n))
    for t in range(0, n, 2):
        m[t, t + 1] = m[t + 1, t] = 100.0
    return m


def solve_item(key="k0", n=8):
    return (key, pair_matrix(n).tobytes(), n, SPEC)


class TestContextRoundTrip:
    def test_json_round_trip(self):
        ctx = TraceContext("t", 5, "/tmp/dir")
        assert TraceContext.from_json(ctx.to_json()) == ctx

    def test_install_and_read_env(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        assert context_from_env() is None
        ctx = TraceContext("t", 2)
        install_context(ctx)
        assert context_from_env() == ctx

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            TraceContext.from_json("[]")
        with pytest.raises(ValueError):
            TraceContext.from_json(json.dumps({"trace_id": ""}))


class TestPayloadHeader:
    def test_header_splits_off_cleanly(self):
        ctx = TraceContext("t", 9)
        items = [worker.trace_header(ctx), solve_item()]
        got_ctx, rest = worker.split_trace_header(items)
        assert got_ctx == ctx
        assert rest == items[1:]

    def test_no_header_passes_through(self):
        items = [solve_item()]
        got_ctx, rest = worker.split_trace_header(items)
        assert got_ctx is None
        assert rest == items

    def test_header_links_worker_span_under_batch_parent(self):
        tr = Tracer(trace_id="t")
        with tracing(tr):
            batch = [worker.trace_header(TraceContext("t", 42)), solve_item()]
            results = worker.solve_batch(batch)
        assert [key for key, _a in results] == ["k0"]
        spans = {s.name: s for s in tr.snapshot()}
        ws = spans["worker.solve_batch"]
        assert ws.parent_id == 42
        assert ws.args == {"items": 1, "solved": 1}

    def test_results_identical_with_and_without_header(self):
        plain = worker.solve_batch([solve_item()])
        tr = Tracer(trace_id="t")
        with tracing(tr):
            traced = worker.solve_batch(
                [worker.trace_header(TraceContext("t", 1)), solve_item()]
            )
        assert traced == plain


class TestProcessPoolPropagation:
    def test_env_context_reaches_a_real_pool_worker(self, tmp_path, monkeypatch):
        ctx = TraceContext("pooltrace", 7, export_dir=str(tmp_path))
        monkeypatch.setenv(TRACE_ENV_VAR, ctx.to_json())
        batch = [worker.trace_header(ctx), solve_item()]
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            results = pool.submit(worker.solve_batch, batch).result(timeout=60)
        assert [key for key, _a in results] == ["k0"]
        jsonl = sorted(tmp_path.glob("worker-*.jsonl"))
        assert jsonl, "pool worker wrote no trace stream"
        records = [
            json.loads(line) for line in jsonl[0].read_text().splitlines()
        ]
        ws = [r for r in records if r["name"] == "worker.solve_batch"]
        assert ws and ws[0]["parent"] == 7
        assert ws[0]["args"]["solved"] == 1

    def test_service_dispatch_links_worker_span_end_to_end(self, monkeypatch):
        # In-process service (workers=0): the env context makes _dispatch
        # prepend a per-batch header, and the worker span must land under
        # that batch's solve span — exact linkage, not just same trace.
        import asyncio

        from repro.service.app import MappingService, ServiceConfig

        ctx = TraceContext("svc", 0)
        monkeypatch.setenv(TRACE_ENV_VAR, ctx.to_json())
        tracer = Tracer(trace_id="svc")

        async def scenario():
            service = MappingService(ServiceConfig(workers=0))
            assert service.tracer is tracer  # adopted the env-activated one
            await service.start()
            try:
                body = json.dumps({"matrix": pair_matrix().tolist()}).encode()
                status, _h, _b = await service.handle_map(body)
                assert status == 200
            finally:
                await service.aclose()

        with tracing(tracer):
            asyncio.run(scenario())
        spans = {s.name: s for s in tracer.snapshot()}
        batch_span = spans["solve.batch"]
        assert spans["worker.solve_batch"].parent_id == batch_span.span_id
