"""Service metric rows: quantile regression, render golden, GET /trace."""

import json

import pytest

from repro.service.app import MappingService

from tests.service.test_service_http import run, serving


def service_metrics():
    """The declared ``repro_service_`` registry of a fresh service."""
    return MappingService().metrics


class TestLatencyQuantiles:
    def test_nearest_rank_pins_exact_values(self):
        m = service_metrics()
        for v in range(1, 101):
            m.observe("latency_ms", float(v))
        # The old biased int(q*n) index returned 51.0 / 91.0 / 100.0.
        assert m.quantile("latency_ms", 0.50) == 50.0
        assert m.quantile("latency_ms", 0.90) == 90.0
        assert m.quantile("latency_ms", 0.99) == 99.0

    def test_two_samples_p50_is_the_lower_one(self):
        m = service_metrics()
        m.observe("latency_ms", 10.0)
        m.observe("latency_ms", 90.0)
        assert m.quantile("latency_ms", 0.50) == 10.0  # int(q*n) said 90.0
        assert m.quantile("latency_ms", 0.99) == 90.0

    def test_empty_reservoir_is_zero(self):
        assert service_metrics().quantile("latency_ms", 0.5) == 0.0


class TestRenderGolden:
    def test_fresh_metrics_render_matches_golden(self):
        # Byte-for-byte pin of the exposition format the chaos harness
        # and ops tooling parse; registration order is part of the API.
        text = service_metrics().render()
        lines = text.splitlines()
        assert lines[0] == "# TYPE repro_service_requests_total counter"
        assert lines[1] == "repro_service_requests_total 0"
        assert "repro_service_breaker_state 0" in lines
        assert lines[-5] == "repro_service_cache_hit_rate 0.000000"
        assert lines[-3] == "repro_service_latency_p50_ms 0.000000"
        assert lines[-2] == "# TYPE repro_service_latency_p99_ms gauge"
        assert lines[-1] == "repro_service_latency_p99_ms 0.000000"
        assert text.endswith("\n")

    def test_counter_attributes_still_read_and_write(self):
        # Rows are read and written by name through the registry.
        m = service_metrics()
        m.inc("requests_total", 3)
        m.inc("inflight", 2)
        assert m.value("requests_total") == 3
        assert "repro_service_requests_total 3" in m.render()
        assert "repro_service_inflight 2" in m.render()
        with pytest.raises(KeyError):
            m.inc("request_total")

    def test_int_discipline_survives_the_facade(self):
        m = service_metrics()
        with pytest.raises(TypeError):
            m.inc("requests_total", 1.5)

    def test_cache_hit_rate_renders_as_float(self):
        m = service_metrics()
        m.inc("body_cache_hits_total")
        m.inc("solve_cache_misses_total")
        assert "repro_service_cache_hit_rate 0.500000" in m.render()


class TestTraceEndpoint:
    def test_get_trace_returns_valid_chrome_json(self):
        from repro.obs.export import validate_chrome_trace
        from repro.service.client import AsyncMappingClient

        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    await client.map_matrix([[0.0, 5.0], [5.0, 0.0]])
                    return await client.request("GET", "/trace")

        status, headers, body = run(scenario())
        assert status == 200
        assert headers.get("content-type", "").startswith("application/json")
        doc = json.loads(body)
        assert validate_chrome_trace(doc) >= 3
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"request:/map", "batch.run", "solve.batch"} <= names

    def test_trace_rejects_non_get(self):
        from repro.service.client import AsyncMappingClient

        async def scenario():
            async with serving() as (_svc, _srv, host, port):
                async with AsyncMappingClient(host, port) as client:
                    return await client.request("POST", "/trace", b"{}")

        status, headers, _body = run(scenario())
        assert status == 405
        assert headers.get("allow") == "GET"

    def test_trace_ring_zero_disables_span_collection(self):
        async def scenario():
            async with serving(trace_ring=0) as (svc, _srv, _host, _port):
                return svc.tracer.enabled

        assert run(scenario()) is False
