"""Executes the paper's experimental protocol (Section V).

Per benchmark:

1. **Detection runs** — the workload runs under identity pinning on a
   software-managed machine with the SM detector, and on a hardware-managed
   machine with the HM detector (the paper evaluates the two mechanisms on
   their respective architectures).  The full-trace oracle matrix is
   computed alongside as ground truth.
2. **Mapping** — each detected matrix feeds the hierarchical Edmonds
   mapper (Section V-A).
3. **Performance ensemble** — the workload runs on the hardware-managed
   machine under (a) ``os_runs`` random placements (the OS-scheduler
   stand-in), and (b) ``mapped_runs`` repetitions of each of the SM and HM
   mappings.  Every run uses a fresh trace seed, so ensembles have genuine
   run-to-run variance (Table V).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.commmatrix import CommunicationMatrix
from repro.core.detection import DetectorConfig
from repro.core.hm_detector import HardwareManagedDetector
from repro.core.oracle import oracle_matrix
from repro.core.sm_detector import SoftwareManagedDetector
from repro.experiments.cache import ResultCache, config_key
from repro.experiments.config import ExperimentConfig
from repro.machine.simulator import NoiseConfig, SimConfig, SimResult, Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import Topology, harpertown
from repro.mapping.baselines import random_mapping
from repro.mapping.hierarchical import hierarchical_mapping
from repro.obs.metrics import global_registry
from repro.obs.trace import get_tracer
from repro.tlb.mmu import TLBManagement
from repro.util.rng import derive_seed
from repro.workloads.npb import make_npb_workload


@dataclass
class MappingRuns:
    """Performance ensemble for one mapping policy."""

    label: str
    mappings: List[List[int]]
    results: List[SimResult]

    def metric(self, name: str) -> List[float]:
        """Extract one metric across runs ('execution_seconds', ...)."""
        return [float(getattr(r, name)) for r in self.results]


@dataclass
class BenchmarkResult:
    """Everything measured for one benchmark."""

    name: str
    detected: Dict[str, CommunicationMatrix]
    detector_stats: Dict[str, dict]
    detection_results: Dict[str, SimResult]
    mappings: Dict[str, List[int]]
    runs: Dict[str, MappingRuns]
    wall_seconds: float = 0.0

    def mean(self, policy: str, metric: str) -> float:
        """Ensemble mean of ``metric`` under ``policy`` (OS/SM/HM)."""
        vals = self.runs[policy].metric(metric)
        return sum(vals) / len(vals)

    def normalized_mean(self, policy: str, metric: str) -> float:
        """Policy mean over OS mean — the paper's Figures 6-9 transform.

        A zero OS baseline (e.g. invalidations in a run too short to
        rewrite any shared line) normalizes to 1.0 when the policy count
        is zero too — "no change", not "perfect reduction".
        """
        base = self.mean("OS", metric)
        val = self.mean(policy, metric)
        if base == 0:
            return 1.0 if val == 0 else float("inf")
        return val / base


class ExperimentRunner:
    """Runs the full protocol for a configuration."""

    #: Policies reported in the paper's figures, in presentation order.
    POLICIES = ("OS", "SM", "HM")

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        topology: Optional[Topology] = None,
        cache_dir: "str | None" = None,
    ):
        self.config = config or ExperimentConfig()
        self.topology = topology or harpertown(cache_scale=self.config.cache_scale)
        self.detector_config = DetectorConfig(
            sm_sample_threshold=self.config.sm_sample_threshold,
            hm_period_cycles=self.config.hm_period_cycles,
        )
        #: Optional on-disk memo of BenchmarkResults.  Sound because every
        #: random stream derives from (seed, benchmark, run label) — a
        #: result is a pure function of (config, topology, name).
        self.cache = ResultCache(cache_dir) if cache_dir else None

    # -- pieces -------------------------------------------------------------------

    def _workload(self, name: str, run_label: object) -> Workload:
        """Fresh workload instance with a per-run derived seed."""
        return make_npb_workload(
            name,
            num_threads=self.config.num_threads,
            scale=self.config.scale,
            seed=derive_seed(self.config.seed, name, run_label),
        )

    def _system(self, management: TLBManagement) -> System:
        return System(self.topology, SystemConfig(tlb_management=management))

    def detect(self, name: str) -> Dict[str, object]:
        """Run the SM and HM detection passes plus the oracle.

        Returns dict with keys ``matrices`` ({SM, HM, oracle} →
        CommunicationMatrix), ``stats`` (detector summaries) and
        ``results`` ({SM, HM} → SimResult of the detection run).
        """
        n = self.config.num_threads
        matrices: Dict[str, CommunicationMatrix] = {}
        stats: Dict[str, dict] = {}
        results: Dict[str, SimResult] = {}

        tracer = get_tracer()
        span = (
            tracer.begin(f"detect:{name}", cat="runner", args={"threads": n})
            if tracer.enabled
            else None
        )
        try:
            wl = self._workload(name, "detect")
            sm = SoftwareManagedDetector(n, self.detector_config)
            res_sm = Simulator(self._system(TLBManagement.SOFTWARE)).run(
                wl, detectors=[sm]
            )
            matrices["SM"] = sm.matrix
            stats["SM"] = sm.summary()
            results["SM"] = res_sm

            wl = self._workload(name, "detect")
            hm = HardwareManagedDetector(n, self.detector_config)
            res_hm = Simulator(self._system(TLBManagement.HARDWARE)).run(
                wl, detectors=[hm]
            )
            matrices["HM"] = hm.matrix
            stats["HM"] = hm.summary()
            results["HM"] = res_hm

            wl = self._workload(name, "detect")
            matrices["oracle"] = oracle_matrix(
                wl, windows_per_phase=self.config.detection_windows
            )
        finally:
            if span is not None:
                tracer.end(
                    span,
                    args={
                        "sm_searches": sm.searches_run if "SM" in stats else 0,
                        "hm_scans": hm.scans_run if "HM" in stats else 0,
                    },
                )
        return {"matrices": matrices, "stats": stats, "results": results}

    def performance_run(self, name: str, mapping: Sequence[int], run_label: object) -> SimResult:
        """One performance run on the hardware-managed machine.

        With ``config.noise_rate > 0`` each run gets an independent
        OS-noise stream (physical run-to-run variance for Table V).
        """
        wl = self._workload(name, run_label)
        sim_config = SimConfig()
        if self.config.noise_rate > 0:
            sim_config = SimConfig(noise=NoiseConfig(
                preemption_rate=self.config.noise_rate,
                seed=derive_seed(self.config.seed, name, run_label, "noise"),
            ))
        return Simulator(
            self._system(TLBManagement.HARDWARE), sim_config
        ).run(wl, mapping=mapping)

    # -- full benchmark -----------------------------------------------------------

    def benchmark_key(self, name: str) -> str:
        """Cache key for one benchmark under this runner's configuration."""
        return config_key(self.config, self.topology, name)

    def run_benchmark(self, name: str) -> BenchmarkResult:
        """Detection + mapping + the full performance ensemble for ``name``.

        With a ``cache_dir`` configured, a prior result for the identical
        (config, topology, benchmark) is returned from disk instead of
        re-simulating; fresh results are stored on the way out.
        """
        reg = global_registry()
        reg.counter("runner_benchmarks_total").inc()
        if self.cache is not None:
            hit = self.cache.get(self.benchmark_key(name))
            if isinstance(hit, BenchmarkResult):
                reg.counter("runner_cache_hits_total").inc()
                return hit
        return self._run_fresh(name)

    def _run_fresh(self, name: str) -> BenchmarkResult:
        """Simulate ``name`` and store the result in the cache, without
        looking the cache up or counting the run: the caller does both."""
        tracer = get_tracer()
        if not tracer.enabled:
            result = self._run_benchmark_uncached(name)
        else:
            span = tracer.begin(f"benchmark:{name}", cat="runner")
            try:
                result = self._run_benchmark_uncached(name)
            finally:
                tracer.end(span)
        if self.cache is not None:
            self.cache.put(self.benchmark_key(name), result)
        return result

    def _run_benchmark_uncached(self, name: str) -> BenchmarkResult:
        t0 = time.perf_counter()
        detection = self.detect(name)
        matrices = detection["matrices"]
        mappings = {
            "SM": hierarchical_mapping(matrices["SM"], self.topology),
            "HM": hierarchical_mapping(matrices["HM"], self.topology),
        }
        runs: Dict[str, MappingRuns] = {}
        # OS ensemble: a fresh random placement per run.
        os_maps = []
        os_results = []
        for r in range(self.config.os_runs):
            placement = random_mapping(
                self.config.num_threads,
                self.topology,
                derive_seed(self.config.seed, name, "os-place", r),
            )
            os_maps.append(placement)
            os_results.append(self.performance_run(name, placement, ("os", r)))
        runs["OS"] = MappingRuns("OS", os_maps, os_results)
        # SM/HM mapped ensembles: fixed mapping, varying trace seed.
        for policy in ("SM", "HM"):
            results = [
                self.performance_run(name, mappings[policy], (policy.lower(), r))
                for r in range(self.config.mapped_runs)
            ]
            runs[policy] = MappingRuns(
                policy, [mappings[policy]] * self.config.mapped_runs, results
            )
        return BenchmarkResult(
            name=name,
            detected=matrices,
            detector_stats=detection["stats"],
            detection_results=detection["results"],
            mappings=mappings,
            runs=runs,
            wall_seconds=time.perf_counter() - t0,
        )


def _run_benchmark_task(
    config: ExperimentConfig,
    topology: Topology,
    name: str,
    cache_dir: "str | None" = None,
) -> BenchmarkResult:
    """Process-pool entry point (must be module-level to pickle).

    The fault site lets chaos tests kill a pool worker deterministically
    (a `hard` crash event with a latch file fires exactly once across
    the forked children) and prove the spec runner's requeue path.
    """
    from repro.faults.injector import get_injector
    from repro.faults.plan import SITE_RUNNER_BENCHMARK

    get_injector().fire(SITE_RUNNER_BENCHMARK)
    return ExperimentRunner(config, topology, cache_dir=cache_dir)._run_fresh(name)
