"""Ablations over the design choices DESIGN.md §5 calls out.

These go beyond the paper: each variant isolates one knob of the mechanism
or the mapper and quantifies its effect on detection accuracy, overhead,
or mapping quality.  :data:`ABLATION_AXES` is the one definition of each
variant the ablation specs (``benchmarks/specs/ablation_*.toml``) run.
A point function turns one sweep point into a record and builds fresh
workloads from a seed derived only from (seed, kernel), so a point's
record does not depend on the other points of its sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.core.accuracy import pearson_similarity
from repro.core.detection import DetectorConfig
from repro.core.hm_detector import HardwareManagedDetector
from repro.core.oracle import oracle_matrix
from repro.core.overhead import overhead_report
from repro.core.sm_detector import SoftwareManagedDetector
from repro.machine.simulator import Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import Topology, harpertown
from repro.mapping.baselines import (
    brute_force_mapping,
    greedy_mapping,
    random_mapping,
    round_robin_mapping,
)
from repro.mapping.drb import drb_mapping
from repro.mapping.hierarchical import hierarchical_mapping
from repro.mapping.quality import mapping_cost
from repro.tlb.mmu import TLBManagement
from repro.tlb.pagetable import PageTableConfig
from repro.tlb.tlb import TLBConfig
from repro.util.rng import derive_seed
from repro.util.validation import ValidationError
from repro.workloads.base import Workload
from repro.workloads.npb import make_npb_workload

#: SM sampling threshold of the variants that sweep something else (TLB
#: geometry, page size, L2 TLB): dense enough that a scaled trace still
#: feeds SM many searches.
SM_SAMPLE_THRESHOLD = 4
#: HM scan period of the page-size variant, in cycles.
PAGE_SIZE_HM_PERIOD = 60_000


def _workload(kernel: str, scale: float, seed: int, tag: str) -> Workload:
    return make_npb_workload(kernel, scale=scale, seed=derive_seed(seed, kernel, tag))


def _sm_sampling_configs(n: int) -> Tuple[DetectorConfig, SystemConfig]:
    return (DetectorConfig(sm_sample_threshold=n),
            SystemConfig(tlb_management=TLBManagement.SOFTWARE))


def sm_sampling_point(
    kernel: str, n: int, scale: float, seed: int, topology: Topology
) -> Dict[str, float]:
    """Accuracy-vs-overhead trade-off of the SM sampling threshold n.

    The paper picks n=100 for full-scale runs; a sweep shows the knee of
    the curve for any trace length.  The record holds the Pearson
    accuracy vs. the oracle and the measured overhead fraction.
    """
    detector_config, system_config = _sm_sampling_configs(n)
    det = SoftwareManagedDetector(8, detector_config)
    res = Simulator(System(topology, system_config)).run(
        _workload(kernel, scale, seed, "smsweep"), detectors=[det])
    oracle = oracle_matrix(_workload(kernel, scale, seed, "smsweep"))
    return {
        "threshold": float(n),
        "accuracy": pearson_similarity(det.matrix, oracle),
        "overhead": overhead_report(det.summary(), res).overhead_fraction,
        "searches": float(det.searches_run),
    }


def _hm_period_configs(period: int) -> Tuple[DetectorConfig, SystemConfig]:
    return (DetectorConfig(hm_period_cycles=period),
            SystemConfig(tlb_management=TLBManagement.HARDWARE))


def hm_period_point(
    kernel: str, period: int, scale: float, seed: int, topology: Topology
) -> Dict[str, float]:
    """Accuracy-vs-overhead trade-off of the HM scan period."""
    detector_config, system_config = _hm_period_configs(period)
    det = HardwareManagedDetector(8, detector_config)
    res = Simulator(System(topology, system_config)).run(
        _workload(kernel, scale, seed, "hmsweep"), detectors=[det])
    oracle = oracle_matrix(_workload(kernel, scale, seed, "hmsweep"))
    return {
        "period": float(period),
        "accuracy": pearson_similarity(det.matrix, oracle),
        "overhead": overhead_report(det.summary(), res).overhead_fraction,
        "scans": float(det.scans_run),
    }


def _tlb_geometry_configs(
    geometry: Tuple[int, int]
) -> Tuple[DetectorConfig, SystemConfig]:
    entries, ways = geometry
    return (DetectorConfig(sm_sample_threshold=SM_SAMPLE_THRESHOLD),
            SystemConfig(tlb=TLBConfig(entries=entries, ways=ways),
                         tlb_management=TLBManagement.SOFTWARE))


def tlb_geometry_point(
    kernel: str, geometry: Tuple[int, int], scale: float, seed: int,
    topology: Topology,
) -> Dict[str, float]:
    """Effect of TLB size/associativity on detection accuracy.

    ``geometry`` is ``(entries, ways)``.  Larger TLBs hold entries longer
    — more matches but also more *stale* matches (false communication);
    ``ways == entries`` is fully associative.  The paper's default is
    (64, 4).
    """
    detector_config, system_config = _tlb_geometry_configs(geometry)
    det = SoftwareManagedDetector(8, detector_config)
    res = Simulator(System(topology, system_config)).run(
        _workload(kernel, scale, seed, "tlbsweep"), detectors=[det])
    oracle = oracle_matrix(_workload(kernel, scale, seed, "tlbsweep"))
    return {
        "entries": float(geometry[0]),
        "ways": float(geometry[1]),
        "accuracy": pearson_similarity(det.matrix, oracle),
        "tlb_miss_rate": res.tlb_miss_rate,
        "matches": float(det.matches_found),
    }


def _page_size_configs(ps: int) -> Tuple[DetectorConfig, SystemConfig,
                                         DetectorConfig, SystemConfig]:
    """SM's detector and system config, then HM's."""
    return (DetectorConfig(sm_sample_threshold=SM_SAMPLE_THRESHOLD),
            SystemConfig(tlb=TLBConfig(page_size=ps),
                         page_table=PageTableConfig(page_size=ps),
                         tlb_management=TLBManagement.SOFTWARE),
            DetectorConfig(hm_period_cycles=PAGE_SIZE_HM_PERIOD),
            SystemConfig(tlb=TLBConfig(page_size=ps),
                         page_table=PageTableConfig(page_size=ps)))


def page_size_point(
    kernel: str, ps: int, scale: float, seed: int, topology: Topology
) -> Dict[str, float]:
    """Detection quality vs. page size (both mechanisms).

    Bigger pages collapse the TLB miss rate (starving SM's trigger) and
    coarsen what "sharing a page" means (inflating HM's false matches).
    Ground truth is always evaluated at 4 KiB.
    """
    sm_config, sm_system, hm_config, hm_system = _page_size_configs(ps)
    truth = oracle_matrix(_workload(kernel, scale, seed, "pagesweep"), page_size=4096)
    sm = SoftwareManagedDetector(8, sm_config)
    res = Simulator(System(topology, sm_system)).run(
        _workload(kernel, scale, seed, "pagesweep"), detectors=[sm])
    hm = HardwareManagedDetector(8, hm_config)
    Simulator(System(topology, hm_system)).run(
        _workload(kernel, scale, seed, "pagesweep"), detectors=[hm])
    return {
        "page_size": float(ps),
        "miss_rate": res.tlb_miss_rate,
        "sm_matches": float(sm.matches_found),
        "sm_accuracy": pearson_similarity(sm.matrix, truth),
        "hm_accuracy": pearson_similarity(hm.matrix, truth),
    }


def _l2_tlb_configs(entries: int) -> Tuple[DetectorConfig, SystemConfig]:
    return (DetectorConfig(sm_sample_threshold=SM_SAMPLE_THRESHOLD),
            SystemConfig(tlb_management=TLBManagement.SOFTWARE,
                         l2_tlb=(TLBConfig(entries=entries, ways=4) if entries else None)))


def l2_tlb_point(
    kernel: str, entries: int, scale: float, seed: int, topology: Topology
) -> Dict[str, float]:
    """Effect of a second-level TLB on the SM mechanism's sample stream.

    L2-TLB hits refill the L1 TLB without a trap, so only walk-level
    misses feed SM — Nehalem-class cores thin the signal considerably.
    0 entries means no L2 TLB.
    """
    detector_config, system_config = _l2_tlb_configs(entries)
    truth = oracle_matrix(_workload(kernel, scale, seed, "l2tlb"))
    det = SoftwareManagedDetector(8, detector_config)
    system = System(topology, system_config)
    Simulator(system).run(_workload(kernel, scale, seed, "l2tlb"), detectors=[det])
    return {
        "l2_entries": float(entries),
        "walks": float(system.page_table.walks),
        "searches": float(det.searches_run),
        "accuracy": pearson_similarity(det.matrix, truth),
    }


@dataclass(frozen=True)
class AblationAxis:
    """One ablation variant: what it sweeps, how a point runs, how its
    table reads."""

    #: The spec's ``[sweep]`` key, e.g. ``thresholds``.
    sweep: str
    #: Record fields that hold a sweep point; a point has one integer per
    #: key (``tlb_geometry`` points are ``[entries, ways]`` pairs).
    keys: Tuple[str, ...]
    header: Tuple[str, ...]
    row: Callable[[Mapping[str, float]], List[object]]
    #: ``(kernel, point, scale, seed, topology) -> record``: a pure
    #: function of its arguments, which makes per-point memoization sound.
    run: Callable[..., Dict[str, float]]
    #: Builds the config objects ``run`` builds for a point; raises
    #: ``ValueError`` for a point out of their range.
    configs: Callable[[Any], Tuple[Any, ...]]

    def check(self, point: Any) -> None:
        """Raise :class:`ValidationError` for a point ``run`` would reject."""
        try:
            self.configs(point)
        except ValueError as exc:
            raise ValidationError(f"sweep axis {self.sweep!r} point {point!r}: {exc}") from exc


#: Ablation variants by name, the ablation specs' ``variant`` key.
ABLATION_AXES: Dict[str, AblationAxis] = {
    "sm_sampling": AblationAxis(
        "thresholds", ("threshold",),
        ("n (sample 1/n misses)", "accuracy (Pearson)", "overhead", "searches"),
        lambda r: [int(r["threshold"]), f"{r['accuracy']:.3f}",
                   f"{100 * r['overhead']:.3f}%", int(r["searches"])],
        sm_sampling_point, _sm_sampling_configs),
    "hm_period": AblationAxis(
        "periods", ("period",),
        ("period (cycles)", "scans", "accuracy (Pearson)", "overhead"),
        lambda r: [int(r["period"]), int(r["scans"]), f"{r['accuracy']:.3f}",
                   f"{100 * r['overhead']:.3f}%"],
        hm_period_point, _hm_period_configs),
    "tlb_geometry": AblationAxis(
        "geometries", ("entries", "ways"),
        ("entries", "ways", "accuracy", "miss rate", "matches"),
        lambda r: [int(r["entries"]), int(r["ways"]), f"{r['accuracy']:.3f}",
                   f"{100 * r['tlb_miss_rate']:.3f}%", int(r["matches"])],
        tlb_geometry_point, _tlb_geometry_configs),
    "page_size": AblationAxis(
        "page_sizes", ("page_size",),
        ("page size", "TLB miss rate", "SM matches", "SM accuracy", "HM accuracy"),
        lambda r: [f"{int(r['page_size']) // 1024} KiB",
                   f"{100 * r['miss_rate']:.3f}%", int(r["sm_matches"]),
                   f"{r['sm_accuracy']:.2f}", f"{r['hm_accuracy']:.2f}"],
        page_size_point, _page_size_configs),
    "l2_tlb": AblationAxis(
        "l2_entries", ("l2_entries",),
        ("L2-TLB entries", "page walks", "SM searches", "SM accuracy"),
        lambda r: ["none" if r["l2_entries"] == 0 else str(int(r["l2_entries"])),
                   int(r["walks"]), int(r["searches"]), f"{r['accuracy']:.2f}"],
        l2_tlb_point, _l2_tlb_configs),
}


def mapper_comparison(workload_name: str, scale: float, seed: int) -> Dict[str, float]:
    """Mapping cost of each algorithm on the oracle matrix of one benchmark.

    Lower is better; brute force is the exact optimum.  This is the
    quantitative backing for the paper's choice of Edmonds matching over
    simpler heuristics.
    """
    topology = harpertown()
    wl = make_npb_workload(workload_name, scale=scale,
                           seed=derive_seed(seed, workload_name, "mappers"))
    oracle = oracle_matrix(wl)
    dist = topology.distance_matrix()
    n = oracle.num_threads
    return {
        "hierarchical": mapping_cost(oracle, hierarchical_mapping(oracle, topology), dist),
        "greedy": mapping_cost(oracle, greedy_mapping(oracle, topology), dist),
        "drb": mapping_cost(oracle, drb_mapping(oracle, topology), dist),
        "round_robin": mapping_cost(oracle, round_robin_mapping(n, topology), dist),
        "random": mapping_cost(
            oracle, random_mapping(n, topology, derive_seed(seed, "rand-map")), dist
        ),
        "optimal": mapping_cost(oracle, brute_force_mapping(oracle, topology), dist),
    }
