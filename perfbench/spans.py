"""In-memory span recorder and the wrappers that time calls into each layer.

A span is ``(span_id, parent_id, name, start_ns, end_ns, attr)`` on the
``time.perf_counter_ns`` clock, which on Linux is CLOCK_MONOTONIC and so
comparable across the benchmark's processes.  The parent is whatever span
is open in the caller's context (a ``contextvars`` variable, so concurrent
asyncio tasks keep separate stacks).  Spans stay in memory until the
process ends; :func:`dump` writes them out.

The wrappers replace attributes on the program's modules and classes from
outside; the program itself is not edited.  Each wrapper is one layer
boundary named in ``README.md``.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, int, int, Any]

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=0)
_now = time.perf_counter_ns


class Recorder:
    """Collects finished spans of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 0

    def reset_after_fork(self) -> None:
        """A forked child keeps none of its parent's spans."""
        self.spans = []

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id


RECORDER = Recorder()

#: (owner, attribute, original value) of every live patch, newest last.
_PATCHES: List[Tuple[Any, str, Any]] = []


def _patch(owner: Any, attr: str, value: Any) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    _PATCHES.append((owner, attr, original))
    setattr(owner, attr, value)


def patch_count() -> int:
    """Live patches; pass to :func:`unpatch` to undo only later ones."""
    return len(_PATCHES)


def unpatch(keep: int = 0) -> None:
    """Undo wrappers and slowdowns, newest first, until ``keep`` remain."""
    while len(_PATCHES) > keep:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)


def _delay(seconds: float) -> None:
    """Busy-wait: a fixed CPU cost that sleeping would not model."""
    end = _now() + int(seconds * 1e9)
    while _now() < end:
        pass


def wrap(owner: Any, attr: str, name: str,
         attr_of: Optional[Callable[..., Any]] = None,
         result_attr: Optional[Callable[[Any], Any]] = None) -> None:
    """Replace ``owner.attr`` with a timed version recording span ``name``.

    ``attr_of(*args, **kwargs)`` labels a span from the call's arguments
    and ``result_attr(result)`` from its return value.
    """
    orig = getattr(owner, attr)
    rec = RECORDER

    if inspect.iscoroutinefunction(orig):
        @functools.wraps(orig)
        async def awrapper(*args: Any, **kwargs: Any) -> Any:
            sid = rec.new_id()
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            label = attr_of(*args, **kwargs) if attr_of is not None else None
            t0 = _now()
            try:
                result = await orig(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
            if result_attr is not None:
                label = result_attr(result)
            rec.spans.append((sid, parent, name, t0, _now(), label))
            return result

        _patch(owner, attr, awrapper)
        return

    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid = rec.new_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        t0 = _now()
        try:
            result = orig(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            t1 = _now()
        label = attr_of(*args, **kwargs) if attr_of is not None else None
        if result_attr is not None:
            label = result_attr(result)
        rec.spans.append((sid, parent, name, t0, t1, label))
        return result

    _patch(owner, attr, wrapper)


def add_delay(owner: Any, attr: str, seconds: float) -> None:
    """Make ``owner.attr`` slower by a fixed busy-wait, without a span."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def slowed(*args: Any, **kwargs: Any) -> Any:
        _delay(seconds)
        return orig(*args, **kwargs)

    _patch(owner, attr, slowed)


def apply_slowdowns(spec: str) -> None:
    """Apply ``PERFBENCH_SLOW``: comma-separated ``module:attr.path:seconds``.

    Example: ``repro.service.app:canonical_form:0.002`` adds 2 ms to every
    call the service makes to ``canonical_form``.
    """
    import importlib

    for item in filter(None, (part.strip() for part in spec.split(","))):
        module_name, path, seconds = item.split(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        add_delay(owner, attr, float(seconds))


def span_cost_ns(calls: int = 20000) -> float:
    """Measured cost one wrapper adds to a call, in nanoseconds."""

    class _Probe:
        @staticmethod
        def f() -> None:
            return None

    bare = _Probe.f
    t0 = _now()
    for _ in range(calls):
        bare()
    t_bare = _now() - t0
    wrap(_Probe, "f", "probe")
    wrapped = _Probe.f
    t0 = _now()
    for _ in range(calls):
        wrapped()
    t_wrapped = _now() - t0
    _PATCHES.pop()
    del RECORDER.spans[-calls:]
    return max(0.0, (t_wrapped - t_bare) / calls)


class _TimedPhases:
    """Iterator over a workload's phases whose every ``next()`` is a span."""

    def __init__(self, inner: Any):
        self._inner = inner

    def __iter__(self) -> "_TimedPhases":
        return self

    def __next__(self) -> Any:
        rec = RECORDER
        sid = rec.new_id()
        parent = _CURRENT.get()
        t0 = _now()
        try:
            phase = next(self._inner)
        except StopIteration:
            rec.spans.append((sid, parent, "workloads.next", t0, _now(), 0))
            raise
        rec.spans.append((sid, parent, "workloads.next", t0, _now(), phase.total_accesses))
        return phase


def install_protocol_wrappers() -> None:
    """Wrap every layer the paper protocol passes through."""
    from repro.core.hm_detector import HardwareManagedDetector
    from repro.core.sm_detector import SoftwareManagedDetector
    from repro.experiments import runner
    from repro.machine.simulator import Simulator
    from repro.machine.system import System
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.tlb.mmu import MMU
    from repro.workloads.base import Workload

    orig_phases = Workload.phases

    @functools.wraps(orig_phases)
    def phases(self: Any) -> Any:
        return _TimedPhases(orig_phases(self))

    _patch(Workload, "phases", phases)
    wrap(System, "__init__", "machine.system_build")
    wrap(Simulator, "run", "machine.sim")
    wrap(MMU, "translate_vpn", "tlb.translate")
    wrap(MMU, "translate_batch", "tlb.translate")
    wrap(SoftwareManagedDetector, "_on_miss", "core.sm_detector.hook")
    wrap(HardwareManagedDetector, "poll", "core.hm_detector.poll")
    wrap(runner, "oracle_matrix", "core.oracle")
    wrap(MemoryHierarchy, "access_batch", "mem.access_batch",
         attr_of=lambda _self, _core, _lines, _writes, start, end: end - start)
    wrap(runner, "hierarchical_mapping", "mapping.solve",
         attr_of=lambda comm, *_a, **_k: _threads(comm))


def _threads(matrix: Any) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is None:
        shape = matrix.matrix.shape  # CommunicationMatrix
    return int(shape[0])


def _cache_class(response: Any) -> str:
    status, headers, _body = response
    if status != 200:
        return f"status{status}"
    return headers.get("X-Repro-Cache") or headers.get("x-repro-cache") or "none"


def install_service_wrappers() -> None:
    """Wrap the mapping-service layers of a ``repro serve`` process."""
    from repro.service import app, batcher, worker

    wrap(app.MappingService, "handle_map", "service.handle_map", result_attr=_cache_class)
    wrap(app, "canonical_form", "service.canonical_form", attr_of=lambda m: _threads(m))
    wrap(app, "canonical_key", "service.canonical_key", attr_of=lambda c, _s: _threads(c))
    wrap(batcher.MicroBatcher, "submit", "service.submit")
    wrap(app, "mapping_quality", "service.render.quality")
    wrap(app, "unpermute", "service.render.unpermute")
    wrap(worker, "solve_mapping", "mapping.solve", attr_of=lambda m, *_a, **_k: _threads(m))


def install_cluster_wrappers() -> None:
    """Wrap the router layers of a ``repro route`` process."""
    from repro.cluster import ring, router
    from repro.service import client

    wrap(router.ClusterRouter, "handle_map", "cluster.handle_map", result_attr=_cache_class)
    wrap(router, "canonical_form", "cluster.canonical_form", attr_of=lambda m: _threads(m))
    wrap(router, "canonical_key", "cluster.canonical_key", attr_of=lambda c, _s: _threads(c))
    wrap(ring.HashRing, "lookup_chain", "cluster.ring")
    wrap(client.AsyncMappingClient, "request", "cluster.request",
         attr_of=lambda _self, _method, path, *_a, **_k: path)


def dump(directory: str) -> None:
    """Write this process's spans to ``directory/spans-<pid>.json``."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "spans": RECORDER.spans}, fh)
    os.replace(tmp, path)


def load(directory: str) -> Dict[int, List[Span]]:
    """Every dumped span file in ``directory``, keyed by pid."""
    out: Dict[int, List[Span]] = {}
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as fh:
                doc = json.load(fh)
            out[int(doc["pid"])] = [tuple(s) for s in doc["spans"]]  # type: ignore[misc]
    return out


def self_times(spans: List[Span]) -> List[Tuple[str, int, Any, int]]:
    """``(name, duration_ns, attr, self_ns)`` per span of one process.

    Self time is the duration minus the part of it that child spans
    cover.  Children of one span run one after another in its task, so
    the covered part is the sum of their durations, clipped to the span.
    """
    child_ns: Dict[int, int] = {}
    for sid, parent, _name, t0, t1, _attr in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out = []
    for sid, _parent, name, t0, t1, attr in spans:
        dur = t1 - t0
        out.append((name, dur, attr, dur - min(dur, child_ns.get(sid, 0))))
    return out
