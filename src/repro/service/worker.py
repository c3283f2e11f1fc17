"""The picklable solve entrypoints: pool batches and single items.

One executor call carries a whole batch (:func:`solve_batch`): matrices
travel as raw float64 bytes (cheap to pickle, reconstructed with
``np.frombuffer``), topologies as their three structural integers.
:func:`solve_item` is the per-item step it runs, and the service also
calls it directly on the event loop for small solves while every pool
slot is busy.  Everything here must stay importable at module top level
and free of process-local state so results are byte-identical no matter
which worker, or the loop, solves them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.faults.injector import get_injector
from repro.faults.plan import SITE_WORKER_SOLVE
from repro.machine.topology import Topology
from repro.mapping.hierarchical import solve_mapping
from repro.obs.context import TraceContext
from repro.obs.trace import activate_tracing, get_tracer, tracer_from_context
from repro.util.validation import ValidationError

#: (cores_per_l2, l2_per_chip, chips) — the structural topology shape.
TopoSpec = Tuple[int, int, int]

#: One batched solve request: (key, matrix bytes, n, topology shape).
SolveItem = Tuple[str, bytes, int, TopoSpec]

#: Reserved key marking a batch's trace-context header item.  The header
#: rides inside the payload (same shape as a real item, so the batch
#: stays picklable) because the environment can only carry *static*
#: context — a fresh parent span id per batch needs an in-band channel.
TRACE_HEADER_KEY = "__repro_trace__"


def trace_header(ctx: TraceContext) -> SolveItem:
    """Encode ``ctx`` as the sentinel first item of a solve batch."""
    return (TRACE_HEADER_KEY, ctx.to_json().encode("utf-8"), 0, (0, 0, 0))


def split_trace_header(
    items: List[SolveItem],
) -> Tuple[Optional[TraceContext], List[SolveItem]]:
    """Pop the trace-context header off a batch, if one is present."""
    if items and items[0][0] == TRACE_HEADER_KEY:
        ctx = TraceContext.from_json(items[0][1].decode("utf-8"))
        return ctx, items[1:]
    return None, items


def topology_from_spec(spec: TopoSpec) -> Topology:
    """Rebuild a structural topology (default cache geometry) from its spec."""
    cores_per_l2, l2_per_chip, chips = spec
    return Topology(
        cores_per_l2=int(cores_per_l2),
        l2_per_chip=int(l2_per_chip),
        chips=int(chips),
    )


def solve_batch(items: List[SolveItem]) -> List[Tuple[str, Tuple[int, ...]]]:
    """Solve every item; returns (key, assignment) pairs in input order.

    Pure function of its arguments: no RNG, no clock, no globals — the
    determinism contract that makes results byte-identical across pool
    workers and across service restarts.  (The fault site below is the
    one sanctioned exception: an *activated* chaos plan may crash, hang
    or slow this call, keyed by invocation count, never by clock.)

    A matrix buffer whose length disagrees with its claimed ``n`` is
    rejected with a typed :class:`ValidationError` naming the key and
    both sizes — not the bare numpy reshape error it used to surface.

    Tracing is observational only: a batch may open with a
    :data:`TRACE_HEADER_KEY` sentinel carrying a
    :class:`~repro.obs.context.TraceContext`, which links a worker-side
    span under the dispatching process's batch span (and, via
    ``REPRO_TRACE_CONTEXT`` in the environment, streams it to a per-pid
    JSONL file).  Solve results are identical with or without it.
    """
    ctx, items = split_trace_header(items)
    get_injector().fire(SITE_WORKER_SOLVE)
    tracer = get_tracer()
    if ctx is not None and not tracer.enabled:
        tracer = activate_tracing(tracer_from_context(ctx))
    span = None
    if tracer.enabled:
        if ctx is not None:
            span = tracer.begin(
                "worker.solve_batch",
                cat="service.worker",
                parent=ctx.parent_span_id,
                args={"items": len(items)},
                nest=False,
            )
        else:
            span = tracer.begin(
                "worker.solve_batch",
                cat="service.worker",
                args={"items": len(items)},
                nest=False,
            )
    out: List[Tuple[str, Tuple[int, ...]]] = []
    try:
        for key, raw, n, spec in items:
            out.append((key, solve_item(key, raw, n, spec)))
    finally:
        if span is not None:
            tracer.end(span, args={"solved": len(out)})
    return out


def solve_item(key: str, raw: bytes, n: int, spec: TopoSpec) -> Tuple[int, ...]:
    """Solve one canonical matrix; returns its core assignment.

    The same pure function wherever it runs: inside :func:`solve_batch`
    in a pool worker, or on the service's event loop.  It has no fault
    site (an injected hang must never block the loop) and resolves
    ``solve_mapping`` at call time through this module's globals.
    """
    expected = n * n * np.dtype(np.float64).itemsize
    if n < 1 or len(raw) != expected:
        raise ValidationError(
            f"solve item {key}: matrix buffer is {len(raw)} bytes, "
            f"expected {expected} for n={n} float64 threads"
        )
    matrix = np.frombuffer(raw, dtype=np.float64).reshape(n, n)
    return solve_mapping(matrix, topology_from_spec(spec)).assignment
