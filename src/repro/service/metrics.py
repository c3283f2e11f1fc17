"""Service counters, backed by the unified observability registry.

All counters are plain ints (the repo's counter-hygiene rule RPL005:
bit-exact comparison needs integer counters); latency quantiles are
derived from a bounded histogram reservoir and exposed as gauges.  The
clock is injected by the owner — this module never reads wall time
itself.

Since PR 5 the storage and rendering live in
:class:`repro.obs.metrics.MetricsRegistry`; :class:`ServiceMetrics` is
a thin facade that keeps the historical attribute API
(``metrics.requests_total += 1``) working via descriptors while the
registry renders the *byte-identical* exposition text the PR-4 chaos
harness pins (same row order, same ``repro_service_`` prefix, ints
bare, floats ``%.6f``).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.obs.metrics import MetricsRegistry


class _MetricAttr:
    """Descriptor exposing a registry series as a plain numeric attribute.

    Reads return the current value (so ``+=`` and comparisons keep
    working); writes store through the underlying metric, which enforces
    the int-counter rule for counter-kind series.
    """

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return self
        return obj._series[self.name].value

    def __set__(self, obj: Any, value: Any) -> None:
        obj._series[self.name].set(value)


#: (name, kind) rows in historical render order — the chaos harness
#: parses this exact sequence, so registration order must not change.
_ROWS: Tuple[Tuple[str, str], ...] = (
    ("requests_total", "counter"),
    ("mappings_total", "counter"),
    ("body_cache_hits_total", "counter"),
    ("solve_cache_hits_total", "counter"),
    ("solve_cache_misses_total", "counter"),
    ("solves_total", "counter"),
    ("batches_total", "counter"),
    ("coalesced_total", "counter"),
    ("rejected_total", "counter"),
    ("validation_errors_total", "counter"),
    ("http_errors_total", "counter"),
    # Delta-endpoint counters (POST /map/delta): request volume, unknown
    # base keys, and the remap-or-hold verdict split.
    ("delta_requests_total", "counter"),
    ("delta_unknown_base_total", "counter"),
    ("delta_remaps_total", "counter"),
    ("delta_holds_total", "counter"),
    # Fault-tolerance counters (chaos-tested; all invocation-driven
    # and therefore identical across reruns of one fault plan).
    ("faults_injected_total", "counter"),
    ("worker_crashes_total", "counter"),
    ("pool_rebuilds_total", "counter"),
    ("batch_requeues_total", "counter"),
    ("solve_deadline_total", "counter"),
    ("breaker_open_total", "counter"),
    ("breaker_state", "gauge"),  # 0 closed, 1 half-open, 2 open
    ("shed_total", "counter"),
    ("solve_failures_total", "counter"),
    ("connection_resets_total", "counter"),
    ("inflight", "gauge"),
    # Cluster replication (POST /cache/push): entries applied into the
    # local caches vs. already-known duplicates.  Appended after the
    # historical rows so the chaos harness's pinned prefix is unchanged.
    ("replication_applied_total", "counter"),
    ("replication_duplicate_total", "counter"),
    # Tracing counters (PR 10): spans recorded, spans dropped by the
    # deterministic sampler, and the per-stage breakdown used by the
    # latency-attribution CLI.  Appended at the end so the pinned row
    # prefix parsed by the chaos harness is unchanged.
    ("trace_spans_total", "counter"),
    ("trace_sampled_out_total", "counter"),
    ("trace_stage_canonicalize_total", "counter"),
    ("trace_stage_queue_total", "counter"),
    ("trace_stage_solve_total", "counter"),
    ("trace_stage_render_total", "counter"),
    # Misses solved on the event loop while every pool slot was busy
    # (caller-runs).  Kept out of solves_total, so solves / batches
    # stays items per pool batch; appended after the pinned order.
    ("inline_solves_total", "counter"),
)


class ServiceMetrics:
    """Mutable counter set for one service instance."""

    requests_total = _MetricAttr("requests_total", "counter")
    mappings_total = _MetricAttr("mappings_total", "counter")
    body_cache_hits_total = _MetricAttr("body_cache_hits_total", "counter")
    solve_cache_hits_total = _MetricAttr("solve_cache_hits_total", "counter")
    solve_cache_misses_total = _MetricAttr("solve_cache_misses_total", "counter")
    solves_total = _MetricAttr("solves_total", "counter")
    batches_total = _MetricAttr("batches_total", "counter")
    coalesced_total = _MetricAttr("coalesced_total", "counter")
    rejected_total = _MetricAttr("rejected_total", "counter")
    validation_errors_total = _MetricAttr("validation_errors_total", "counter")
    http_errors_total = _MetricAttr("http_errors_total", "counter")
    delta_requests_total = _MetricAttr("delta_requests_total", "counter")
    delta_unknown_base_total = _MetricAttr("delta_unknown_base_total", "counter")
    delta_remaps_total = _MetricAttr("delta_remaps_total", "counter")
    delta_holds_total = _MetricAttr("delta_holds_total", "counter")
    faults_injected_total = _MetricAttr("faults_injected_total", "counter")
    worker_crashes_total = _MetricAttr("worker_crashes_total", "counter")
    pool_rebuilds_total = _MetricAttr("pool_rebuilds_total", "counter")
    batch_requeues_total = _MetricAttr("batch_requeues_total", "counter")
    solve_deadline_total = _MetricAttr("solve_deadline_total", "counter")
    breaker_open_total = _MetricAttr("breaker_open_total", "counter")
    breaker_state = _MetricAttr("breaker_state", "gauge")
    shed_total = _MetricAttr("shed_total", "counter")
    solve_failures_total = _MetricAttr("solve_failures_total", "counter")
    connection_resets_total = _MetricAttr("connection_resets_total", "counter")
    inflight = _MetricAttr("inflight", "gauge")
    replication_applied_total = _MetricAttr("replication_applied_total", "counter")
    replication_duplicate_total = _MetricAttr(
        "replication_duplicate_total", "counter"
    )
    trace_spans_total = _MetricAttr("trace_spans_total", "counter")
    trace_sampled_out_total = _MetricAttr("trace_sampled_out_total", "counter")
    trace_stage_canonicalize_total = _MetricAttr(
        "trace_stage_canonicalize_total", "counter"
    )
    trace_stage_queue_total = _MetricAttr("trace_stage_queue_total", "counter")
    trace_stage_solve_total = _MetricAttr("trace_stage_solve_total", "counter")
    trace_stage_render_total = _MetricAttr("trace_stage_render_total", "counter")
    inline_solves_total = _MetricAttr("inline_solves_total", "counter")

    def __init__(
        self,
        latency_window: int = 2048,
        registry: Optional[MetricsRegistry] = None,
    ):
        #: The backing registry; per-instance by default so concurrent
        #: service instances in tests never share counters.
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(prefix="repro_service_")
        )
        self._series = {
            name: (
                self.registry.counter(name)
                if kind == "counter"
                else self.registry.gauge(name)
            )
            for name, kind in _ROWS
        }
        self._latency_ms = self.registry.histogram(
            "latency_ms", window=latency_window
        )
        # Derived gauges render after the plain rows, preserving the
        # historical tail: cache_hit_rate, latency_p50_ms, latency_p99_ms.
        self.registry.callback_gauge("cache_hit_rate", lambda: self.cache_hit_rate)
        self.registry.callback_gauge(
            "latency_p50_ms", lambda: self.latency_quantile_ms(0.50)
        )
        self.registry.callback_gauge(
            "latency_p99_ms", lambda: self.latency_quantile_ms(0.99)
        )

    def observe_latency_ms(self, value: float) -> None:
        """Record one request latency into the quantile reservoir."""
        self._latency_ms.observe(value)

    def latency_quantile_ms(self, q: float) -> float:
        """Nearest-rank quantile over the recent-latency reservoir.

        0.0 when empty.  Uses ``ceil(q*n)-1`` — the historical
        ``int(q*n)`` index was biased high by one rank (p50 of two
        samples returned the upper one).
        """
        return self._latency_ms.quantile(q, default=0.0)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of mapping requests answered without a fresh solve."""
        served = self.body_cache_hits_total + self.solve_cache_hits_total
        total = served + self.solve_cache_misses_total
        return served / total if total else 0.0

    def render(self) -> str:
        """Prometheus text exposition of every counter and gauge."""
        return self.registry.render()
