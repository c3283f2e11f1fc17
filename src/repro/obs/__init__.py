"""Observability: deterministic tracing, metrics registry, profiling hooks.

The paper's whole argument is about *where time and traffic go* —
detector overhead (Table III), per-phase execution time, invalidations
and snoops (Figures 6-9) — so the reproduction carries first-class
instrumentation instead of ad-hoc counters:

* :mod:`repro.obs.trace` — nested spans with **dual clocks**: simulated
  cycle time (bit-exact, seed-stable) and an *injected* monotonic wall
  clock.  The module itself never reads wall time (RPL002/RPL007); with
  no clock injected it falls back to a deterministic step counter, which
  is what makes trace exports byte-identical across runs.
* :mod:`repro.obs.context` — trace-context propagation into process-pool
  children (environment variable + payload header, the same trick the
  fault layer uses for ``REPRO_FAULT_PLAN``).
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (loads in
  Perfetto / ``chrome://tracing``) plus a compact JSONL stream, with a
  schema validator used by ``make trace-smoke``.
* :mod:`repro.obs.metrics` — the unified :class:`Counter` / ``Gauge`` /
  ``Histogram`` registry that the simulator, experiment runner, faults
  layer, mapping service and cluster router all publish into, and the
  one parser of the text it renders.

Disabled tracing is a near-free no-op: every hook reaches the shared
:class:`~repro.obs.trace.NullTracer`, whose methods are constant-time
(the overhead guard in ``tests/obs/test_overhead.py`` bounds the cost
at <2% of an engine benchmark run).
"""

from repro.obs.context import TRACE_ENV_VAR, TraceContext
from repro.obs.export import (
    chrome_trace,
    render_chrome_json,
    render_jsonl,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    nearest_rank_index,
    reset_global_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    activate_tracing,
    deactivate_tracing,
    get_tracer,
    tracer_from_context,
    tracing,
)

__all__ = [
    "TRACE_ENV_VAR",
    "TraceContext",
    "chrome_trace",
    "render_chrome_json",
    "render_jsonl",
    "validate_chrome_trace",
    "CallbackGauge",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "nearest_rank_index",
    "reset_global_registry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "activate_tracing",
    "deactivate_tracing",
    "get_tracer",
    "tracer_from_context",
    "tracing",
]
