"""The paper-protocol workloads: ``ExperimentRunner.run_benchmark`` uncached.

One operation is one full protocol for one NPB kernel: the SM and HM
detection passes, the oracle, Edmonds mapping of both detected matrices
and the OS/SM/HM performance ensemble.  Runs happen in this process, one
after another, on a runner built once.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import layers
import spans
from stats import describe, self_peak_rss_mb

#: workload -> (NPB kernel, scale).  The ensemble is two OS placements
#: and one run per detected mapping; the experiment seed is the paper
#: configuration's 2012 so every simulated statistic can be pinned.
WORKLOADS: Dict[str, Tuple[str, float]] = {
    "protocol-sp": ("sp", 0.2),
    "protocol-is": ("is", 3.0),
}
OS_RUNS = 2
MAPPED_RUNS = 1
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
SETUPS = 5


def make_config(workload: str) -> Any:
    from repro.experiments.config import ExperimentConfig

    kernel, scale = WORKLOADS[workload]
    return ExperimentConfig(
        benchmarks=(kernel,), scale=scale, os_runs=OS_RUNS, mapped_runs=MAPPED_RUNS
    )


def fingerprint(result: Any) -> Dict[str, Any]:
    """Every simulated output of one protocol run, as plain JSON values."""
    from repro.core.accuracy import pearson_similarity

    def sim(r: Any) -> Dict[str, Any]:
        return dataclasses.asdict(r)

    doc = {
        "detection_results": {k: sim(v) for k, v in sorted(result.detection_results.items())},
        "detector_stats": result.detector_stats,
        "mappings": result.mappings,
        "runs": {
            policy: {"mappings": runs.mappings, "results": [sim(r) for r in runs.results]}
            for policy, runs in sorted(result.runs.items())
        },
        "mapped_speedup": result.mean("OS", "execution_cycles")
        / result.mean("SM", "execution_cycles"),
        "sm_accuracy": pearson_similarity(result.detected["SM"], result.detected["oracle"]),
        "hm_accuracy": pearson_similarity(result.detected["HM"], result.detected["oracle"]),
    }
    return json.loads(json.dumps(doc))


def load_pins(workload: str) -> Dict[str, Any]:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def measure_setup(workload: str) -> float:
    """Median time for a fresh interpreter to import and build the runner."""
    kernel, scale = WORKLOADS[workload]
    code = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import ExperimentRunner\n"
        f"ExperimentRunner(ExperimentConfig(benchmarks=({kernel!r},), scale={scale!r}, "
        f"os_runs={OS_RUNS}, mapped_runs={MAPPED_RUNS}))\n"
    )
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def counts(result: Any) -> Dict[str, Any]:
    """Operation counts the program reports for one protocol run."""
    sims = list(result.detection_results.values())
    sims += [r for runs in result.runs.values() for r in runs.results]
    out: Dict[str, Any] = {
        field: sum(getattr(r, field) for r in sims)
        for field in ("accesses", "tlb_accesses", "tlb_misses", "l2_misses",
                      "invalidations", "snoop_transactions")
    }
    out["simulations"] = len(sims)
    out["sm"] = result.detector_stats["SM"]
    out["hm"] = result.detector_stats["HM"]
    return out


def _loop(runner: Any, kernel: str, seconds: float, min_runs: int,
          pins: Dict[str, Any]) -> Tuple[List[float], List[Dict[str, Any]], int]:
    """Run the protocol back to back; returns (wall times, counts, failures).

    Only the counts of each run are kept, so that retained results do not
    grow the heap the program's garbage collector has to walk.
    """
    times: List[float] = []
    runs: List[Dict[str, Any]] = []
    failed = 0
    start = time.perf_counter()
    while len(times) < min_runs or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        result = runner.run_benchmark(kernel)
        times.append(time.perf_counter() - t0)
        if fingerprint(result) != pins:
            failed += 1
        runs.append(counts(result))
        del result
    return times, runs, failed


def run(workload: str, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.experiments.runner import ExperimentRunner

    kernel, _scale = WORKLOADS[workload]
    spans.apply_slowdowns(os.environ.get("PERFBENCH_SLOW", ""))
    pins = load_pins(workload)
    setup_s = measure_setup(workload)
    runner = ExperimentRunner(make_config(workload))
    # Warm-up: first-call imports and allocator growth are not paid on
    # every run by a user who reproduces several benchmarks.
    _times, warm, failed = _loop(runner, kernel, 0.0, 1, pins)
    if not trace:
        times, runs, loop_failed = _loop(runner, kernel, seconds, 3, pins)
        failed += loop_failed
        per_run = runs[0]["accesses"]
        rate = per_run / statistics.median(times)
        report = [
            describe("protocol_s", times, "s"),
            f"sim_accesses_per_s: {rate:.1f} at the median protocol run "
            f"({per_run} simulated accesses per protocol run)",
        ]
        for key in ("mapped_speedup", "sm_accuracy", "hm_accuracy"):
            report.append(f"{key}: {pins[key]!r} (every run matched the pinned outputs: "
                          f"{'yes' if failed == 0 else 'no'})")
        metrics = {
            "p50_ms": statistics.median(times) * 1e3,
            "miss_p50_ms": statistics.median(times) * 1e3,
            "ops_per_s": rate,
            "peak_rss_mb": self_peak_rss_mb(),
            "setup_s": setup_s,
        }
        attempted = len(warm) + len(times)
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}

    # Traced run: untraced and traced protocol runs alternate, so the
    # untraced ones give the independent end-to-end time under the same
    # machine conditions, and the traced ones give the layers.
    cost_ns = spans.span_cost_ns()
    plain: List[float] = []
    traced: List[float] = []
    traced_runs: List[Dict[str, Any]] = []
    rows: List[Tuple[str, int, Any, int]] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        times, _runs, loop_failed = _loop(runner, kernel, 0.0, 1, pins)
        plain += times
        failed += loop_failed
        slowdowns = spans.patch_count()
        spans.install_protocol_wrappers()
        try:
            times, runs, loop_failed = _loop(runner, kernel, 0.0, 1, pins)
        finally:
            spans.unpatch(keep=slowdowns)
        traced += times
        traced_runs += runs
        failed += loop_failed
        rows += spans.self_times(spans.RECORDER.spans)
        spans.RECORDER.spans.clear()
    metrics = protocol_layers(rows, traced_runs, statistics.median(plain),
                              statistics.median(traced), cost_ns)
    report = [describe("protocol_s untraced", plain, "s"),
              describe("protocol_s traced", traced, "s"),
              f"span cost taken off self times: {cost_ns:.0f} ns per span"]
    attempted = len(warm) + len(plain) + len(traced)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def protocol_layers(rows: List[Tuple[str, int, Any, int]], runs: List[Dict[str, Any]],
                    untraced_s: float, traced_s: float,
                    span_cost_ns: float) -> Dict[str, float]:
    """Per-layer metrics per protocol run from the traced runs' spans."""
    t = layers.Totals(rows, span_cost_ns)
    k = len(runs)

    def total(field: str) -> float:
        return sum(run[field] for run in runs)

    sm = [run["sm"] for run in runs]
    hm = [run["hm"] for run in runs]
    accesses = total("accesses")
    tlb_accesses = total("tlb_accesses")
    simulations = total("simulations")
    sm_misses = sum(x["misses_seen"] for x in sm)
    hm_scans = sum(x["scans_run"] for x in hm)
    s = layers.ratio
    m = layers.blank()
    m["workloads.gen_s"] = t.self_ns["workloads.next"] / k / 1e9
    m["workloads.us_per_access"] = s(t.self_ns["workloads.next"] / 1e3,
                                     t.attr_sum["workloads.next"])
    m["machine.system_build_s"] = t.self_ns["machine.system_build"] / k / 1e9
    m["machine.sim_self_s"] = t.self_ns["machine.sim"] / k / 1e9
    m["tlb.translate_calls"] = t.calls["tlb.translate"] / k
    m["tlb.misses"] = total("tlb_misses") / k
    m["tlb.us_per_translate"] = t.mean_us("tlb.translate", self_time=True)
    m["core.sm_detector.searches"] = sum(x["searches_run"] for x in sm) / k
    m["core.sm_detector.sampled_share"] = s(sum(x["searches_run"] for x in sm), sm_misses)
    m["core.sm_detector.us_per_miss"] = t.mean_us("core.sm_detector.hook", self_time=True)
    m["core.hm_detector.scans"] = hm_scans / k
    m["core.hm_detector.us_per_scan"] = s(t.self_ns["core.hm_detector.poll"] / 1e3, hm_scans)
    m["core.hm_detector.matches_per_scan"] = s(sum(x["matches_found"] for x in hm), hm_scans)
    m["core.oracle_s"] = t.self_ns["core.oracle"] / k / 1e9
    m["mem.accesses"] = t.attr_sum["mem.access_batch"] / k
    m["mem.busy_s"] = t.self_ns["mem.access_batch"] / k / 1e9
    m["mem.us_per_access"] = s(t.self_ns["mem.access_batch"] / 1e3,
                               t.attr_sum["mem.access_batch"])
    m["mem.l2_misses"] = total("l2_misses") / k
    m["mem.invalidations"] = total("invalidations") / k
    m["mem.snoops"] = total("snoop_transactions") / k
    m["mapping.solves"] = t.calls["mapping.solve"] / k
    for n in layers.SIZES:
        m[f"mapping.us_per_solve.n{n}"] = t.mean_us("mapping.solve", attr=n)
    attributed_s = t.all_self_ns() / k / 1e9
    m["unattributed_share"] = 1.0 - attributed_s / untraced_s
    m["trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    # Op-count cross-check: each layer's cost per operation times the
    # operation counts the program itself reports (SimResult counters,
    # detector summaries), summed into a prediction of protocol_s.
    per_tlb_access = s(t.self_ns["tlb.translate"], tlb_accesses)
    per_sim = s(t.self_ns["machine.sim"] + t.self_ns["machine.system_build"], simulations)
    predicted_ns = (
        m["mem.us_per_access"] * 1e3 * accesses
        + per_tlb_access * tlb_accesses
        + m["core.sm_detector.us_per_miss"] * 1e3 * sm_misses
        + m["core.hm_detector.us_per_scan"] * 1e3 * hm_scans
        + m["workloads.us_per_access"] * 1e3 * t.attr_sum["workloads.next"]
        + per_sim * simulations
        + t.self_ns["core.oracle"]
        + t.self_ns["mapping.solve"]
    )
    m["xcheck_error_pct"] = (predicted_ns / k / 1e9 / untraced_s - 1.0) * 100.0
    return m
