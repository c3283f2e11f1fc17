"""Metric names and units, and per-layer numbers derived from spans.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names in
``BENCHMARK.json``; ``tests/test_benchmark.py`` keeps the two in step.
Every run reports every name: a layer that a workload does not touch
reads 0 there (e.g. ``mem.*`` on the service workloads).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

#: (name, unit, better, bound) of the metrics the untraced run reports.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("p50_ms", "ms", "lower", 0.25),
    ("miss_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

SIZES = (8, 16, 32, 64)

#: (name, unit, better) of the metrics the traced run reports.  Counts
#: and times are per operation: one protocol run, or one /map request.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.us_per_access", "us", "lower"),
    ("machine.system_build_s", "s", "lower"),
    ("machine.sim_self_s", "s", "lower"),
    ("tlb.translate_calls", "count", "lower"),
    ("tlb.misses", "count", "lower"),
    ("tlb.us_per_translate", "us", "lower"),
    ("core.sm_detector.searches", "count", "lower"),
    ("core.sm_detector.sampled_share", "ratio", "lower"),
    ("core.sm_detector.us_per_miss", "us", "lower"),
    ("core.hm_detector.scans", "count", "lower"),
    ("core.hm_detector.us_per_scan", "us", "lower"),
    ("core.hm_detector.matches_per_scan", "count", "higher"),
    ("core.oracle_s", "s", "lower"),
    ("mem.accesses", "count", "lower"),
    ("mem.busy_s", "s", "lower"),
    ("mem.us_per_access", "us", "lower"),
    ("mem.l2_misses", "count", "lower"),
    ("mem.invalidations", "count", "lower"),
    ("mem.snoops", "count", "lower"),
    ("mapping.solves", "count", "lower"),
    *((f"mapping.us_per_solve.n{n}", "us", "lower") for n in SIZES),
    *((f"service.canonical_us.n{n}", "us", "lower") for n in SIZES),
    ("service.body_hit_rate", "ratio", "higher"),
    ("service.solve_hit_rate", "ratio", "higher"),
    ("service.handle_us.body", "us", "lower"),
    ("service.handle_us.solve", "us", "lower"),
    ("service.handle_us.miss", "us", "lower"),
    ("service.batcher_wait_ms", "ms", "lower"),
    ("service.batch_items", "count", "higher"),
    ("service.render_us", "us", "lower"),
    ("service.http_us", "us", "lower"),
    ("cluster.route_us", "us", "lower"),
    ("cluster.canonical_us", "us", "lower"),
    ("cluster.ring_us", "us", "lower"),
    ("cluster.forward_us", "us", "lower"),
    ("cluster.replicate_us", "us", "lower"),
    ("cluster.route_cache_hit_rate", "ratio", "higher"),
    ("unattributed_share", "ratio", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("xcheck_error_pct", "%", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


class Totals:
    """Per-span-name call counts, durations and self times (ns).

    ``span_cost_ns`` is the measured cost one wrapper adds to a call
    (:func:`spans.span_cost_ns`); it is taken off each span's self time so
    that the layers are not charged for being observed.
    """

    def __init__(self, rows: Iterable[Tuple[str, int, Any, int]], span_cost_ns: float = 0.0):
        self.calls: Dict[str, int] = defaultdict(int)
        self.dur: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls_by: Dict[Tuple[str, Any], int] = defaultdict(int)
        self.dur_by: Dict[Tuple[str, Any], int] = defaultdict(int)
        self.attr_sum: Dict[str, float] = defaultdict(float)
        for name, dur, attr, self_ns in rows:
            self.calls[name] += 1
            self.dur[name] += dur
            self.self_ns[name] += max(0, self_ns - int(span_cost_ns))
            self.calls_by[(name, attr)] += 1
            self.dur_by[(name, attr)] += dur
            if isinstance(attr, (int, float)):
                self.attr_sum[name] += attr

    def mean_us(self, name: str, attr: Any = None, self_time: bool = False) -> float:
        """Mean duration (or self time) per call, in microseconds."""
        if attr is not None:
            calls, ns = self.calls_by[(name, attr)], self.dur_by[(name, attr)]
        else:
            calls = self.calls[name]
            ns = self.self_ns[name] if self_time else self.dur[name]
        return ns / calls / 1e3 if calls else 0.0

    def all_self_ns(self) -> int:
        return sum(self.self_ns.values())


def blank() -> Dict[str, float]:
    """Every per-layer metric at 0 (layer not exercised)."""
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
