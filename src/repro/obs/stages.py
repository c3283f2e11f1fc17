"""Canonical latency-attribution stage taxonomy.

Span names are free-form at the instrumentation site, but latency
attribution and the per-stage ``/metrics`` counters need a fixed,
documented vocabulary (DESIGN.md §17).  :func:`stage_of` is the single
mapping from span name to stage: the router-side stages (``route``,
``ring.lookup``, ``forward``, ``replicate``) and the shard-side stages
(``queue``, ``canonicalize``, ``solve``, ``render``).  The whole solve
machinery — the batcher's ``batch.run`` wrapper, the service-side
``solve.batch`` dispatch, the pool worker's ``worker.solve_batch`` and
the loop-side ``solve.inline`` — collapses onto the single ``solve``
stage, so attribution reports where a request *waited* versus where it
*computed* without exposing executor internals as stages.

Spans outside the taxonomy (the ``request:/map`` roots whose self-time
is parse/validate/cache glue, or future experiment spans) attribute
their self-time to :data:`OTHER_STAGE` rather than being dropped: every
microsecond of a request's duration lands in exactly one bucket, which
is what lets the attribution table sum back to the measured total.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: The fixed stage vocabulary, in critical-path order.
STAGES: Tuple[str, ...] = (
    "route",
    "ring.lookup",
    "forward",
    "queue",
    "canonicalize",
    "solve",
    "replicate",
    "render",
)

#: Bucket for self-time of spans outside the taxonomy.
OTHER_STAGE = "other"

#: Span names that root one request's critical path in a trace document:
#: the router's ``route`` span in a stitched cluster trace, or the
#: service's ``request:/...`` span in a standalone shard trace.
REQUEST_ROOT_NAMES = frozenset({"route", "request:/map", "request:/map/delta"})

_SPAN_STAGES = {
    "route": "route",
    "ring.lookup": "ring.lookup",
    "forward": "forward",
    "queue": "queue",
    "canonicalize": "canonicalize",
    "render": "render",
    "replicate": "replicate",
    "batch.run": "solve",
    "solve.batch": "solve",
    "solve.inline": "solve",
    "worker.solve_batch": "solve",
}


def stage_of(span_name: str) -> Optional[str]:
    """Stage for a span name, or ``None`` when outside the taxonomy."""
    return _SPAN_STAGES.get(span_name)
