"""Trace-context propagation primitives.

A :class:`TraceContext` is the small, serializable part of a trace that
crosses process boundaries: the trace id, the span to parent under, and
(optionally) a directory where the child should stream its spans as
JSONL.  It travels three ways, mirroring the fault layer's
``REPRO_FAULT_PLAN`` trick:

* **Environment** (:data:`TRACE_ENV_VAR`) — static context installed
  before a process pool is created; every child picks it up lazily via
  :func:`repro.obs.trace.get_tracer`.
* **Payload header** — a sentinel item prepended to a solve batch by the
  service batcher (see :mod:`repro.service.worker`), carrying a *fresh*
  parent span id per batch, which the environment cannot do.
* **HTTP header** (:data:`TRACE_HEADER`) — injected by the cluster
  router on every forward, carrying a fresh parent span id per request
  so shard request spans stitch under the router's ``forward`` span.

The JSON codec is strict on types so a corrupted environment variable
fails loudly at the first traced call, not with a silent mis-parented
trace.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.util.validation import decode_json

#: Environment variable carrying a JSON-encoded :class:`TraceContext`.
TRACE_ENV_VAR = "REPRO_TRACE_CONTEXT"

#: HTTP request header carrying a JSON-encoded :class:`TraceContext`.
#: The router injects it on every forward (parenting the shard's request
#: span under the router's ``forward`` span); the shard's HTTP layer
#: parses it strictly and rejects malformed values with a 400 rather
#: than silently mis-parenting a distributed trace.
TRACE_HEADER = "X-Repro-Trace"


@dataclass(frozen=True)
class TraceContext:
    """The portable cross-process slice of a trace."""

    #: Trace identifier shared by parent and children.
    trace_id: str
    #: Span id in the parent process to parent child roots under
    #: (0 means "no parent").
    parent_span_id: int = 0
    #: Directory where a child process should stream spans as JSONL
    #: (``worker-<pid>.jsonl``); ``None`` disables child export.
    export_dir: Optional[str] = None

    def to_json(self) -> str:
        """Compact JSON form for the environment / payload header."""
        doc = {"trace_id": self.trace_id, "parent_span_id": self.parent_span_id}
        if self.export_dir is not None:
            doc["export_dir"] = self.export_dir
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "TraceContext":
        """Parse and validate a context produced by :meth:`to_json`."""
        try:
            doc = decode_json(text)
        except ValueError as exc:
            raise ValueError(f"malformed trace context: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("trace context must be a JSON object")
        trace_id = doc.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise ValueError("trace context needs a non-empty string trace_id")
        parent = doc.get("parent_span_id", 0)
        if not isinstance(parent, int) or isinstance(parent, bool) or parent < 0:
            raise ValueError("trace context parent_span_id must be an int >= 0")
        export_dir = doc.get("export_dir")
        if export_dir is not None and not isinstance(export_dir, str):
            raise ValueError("trace context export_dir must be a string")
        return cls(trace_id=trace_id, parent_span_id=parent, export_dir=export_dir)

    def to_header(self) -> str:
        """Value for the :data:`TRACE_HEADER` HTTP request header.

        The compact JSON form is already a legal HTTP header value
        (printable ASCII, no CR/LF), so the wire encoding is the same
        codec the environment variable uses — one format, one parser.
        """
        return self.to_json()

    @classmethod
    def from_header(cls, value: str) -> "TraceContext":
        """Parse a :data:`TRACE_HEADER` value (strict, like the env path)."""
        return cls.from_json(value)


def context_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[TraceContext]:
    """The :class:`TraceContext` installed in ``environ``, if any."""
    env = os.environ if environ is None else environ
    raw = env.get(TRACE_ENV_VAR)
    if not raw:
        return None
    return TraceContext.from_json(raw)


def install_context(ctx: TraceContext) -> None:
    """Publish ``ctx`` to ``os.environ`` for future child processes."""
    os.environ[TRACE_ENV_VAR] = ctx.to_json()


def clear_context() -> None:
    """Remove any published trace context from ``os.environ``."""
    os.environ.pop(TRACE_ENV_VAR, None)
