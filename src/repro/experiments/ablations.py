"""Ablations over the design choices DESIGN.md §5 calls out.

These go beyond the paper: each sweep isolates one knob of the mechanism
or the mapper and quantifies its effect on detection accuracy, overhead,
or mapping quality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
from repro.tlb.tlb import TLBConfig
from repro.util.rng import derive_seed
from repro.workloads.base import Workload
from repro.workloads.npb import make_npb_workload


def sm_sampling_sweep(
    workload_name: str = "sp",
    thresholds: Sequence[int] = (1, 2, 4, 8, 16, 64, 256),
    scale: float = 0.5,
    seed: int = 2012,
    topology: Optional[Topology] = None,
) -> List[Dict[str, float]]:
    """Accuracy-vs-overhead trade-off of the SM sampling threshold n.

    The paper picks n=100 for full-scale runs; this sweep shows the knee of
    the curve for any trace length.  Returns one record per threshold with
    the Pearson accuracy vs. the oracle and the measured overhead fraction.
    """
    topology = topology or harpertown()
    out = []
    for n in thresholds:
        wl = make_npb_workload(workload_name, scale=scale,
                               seed=derive_seed(seed, workload_name, "smsweep"))
        det = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=n))
        system = System(topology, SystemConfig(tlb_management=TLBManagement.SOFTWARE))
        res = Simulator(system).run(wl, detectors=[det])
        wl_oracle = make_npb_workload(workload_name, scale=scale,
                                      seed=derive_seed(seed, workload_name, "smsweep"))
        oracle = oracle_matrix(wl_oracle)
        rep = overhead_report(det.summary(), res)
        out.append({
            "threshold": float(n),
            "accuracy": pearson_similarity(det.matrix, oracle),
            "overhead": rep.overhead_fraction,
            "searches": float(det.searches_run),
        })
    return out


def hm_period_sweep(
    workload_name: str = "sp",
    periods: Sequence[int] = (20_000, 50_000, 100_000, 400_000, 1_600_000),
    scale: float = 0.5,
    seed: int = 2012,
    topology: Optional[Topology] = None,
) -> List[Dict[str, float]]:
    """Accuracy-vs-overhead trade-off of the HM scan period."""
    topology = topology or harpertown()
    out = []
    for period in periods:
        wl = make_npb_workload(workload_name, scale=scale,
                               seed=derive_seed(seed, workload_name, "hmsweep"))
        det = HardwareManagedDetector(8, DetectorConfig(hm_period_cycles=period))
        system = System(topology, SystemConfig(tlb_management=TLBManagement.HARDWARE))
        res = Simulator(system).run(wl, detectors=[det])
        wl_oracle = make_npb_workload(workload_name, scale=scale,
                                      seed=derive_seed(seed, workload_name, "hmsweep"))
        oracle = oracle_matrix(wl_oracle)
        rep = overhead_report(det.summary(), res)
        out.append({
            "period": float(period),
            "accuracy": pearson_similarity(det.matrix, oracle),
            "overhead": rep.overhead_fraction,
            "scans": float(det.scans_run),
        })
    return out


def tlb_geometry_sweep(
    workload_name: str = "bt",
    geometries: Sequence[tuple] = ((16, 4), (32, 4), (64, 4), (128, 4), (64, 64)),
    scale: float = 0.5,
    seed: int = 2012,
    topology: Optional[Topology] = None,
) -> List[Dict[str, float]]:
    """Effect of TLB size/associativity on detection accuracy.

    Larger TLBs hold entries longer — more matches but also more *stale*
    matches (false communication); the last geometry (64, 64) is fully
    associative.  The paper's default is (64, 4).
    """
    topology = topology or harpertown()
    out = []
    for entries, ways in geometries:
        cfg = SystemConfig(
            tlb=TLBConfig(entries=entries, ways=ways),
            tlb_management=TLBManagement.SOFTWARE,
        )
        wl = make_npb_workload(workload_name, scale=scale,
                               seed=derive_seed(seed, workload_name, "tlbsweep"))
        det = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=4))
        res = Simulator(System(topology, cfg)).run(wl, detectors=[det])
        wl_oracle = make_npb_workload(workload_name, scale=scale,
                                      seed=derive_seed(seed, workload_name, "tlbsweep"))
        oracle = oracle_matrix(wl_oracle)
        out.append({
            "entries": float(entries),
            "ways": float(ways),
            "accuracy": pearson_similarity(det.matrix, oracle),
            "tlb_miss_rate": res.tlb_miss_rate,
            "matches": float(det.matches_found),
        })
    return out


def page_size_sweep(
    workload_name: str = "bt",
    page_sizes: Sequence[int] = (4096, 16384, 65536, 262144),
    scale: float = 0.3,
    seed: int = 2012,
    hm_period: int = 60_000,
    topology: Optional[Topology] = None,
) -> List[Dict[str, float]]:
    """Detection quality vs. page size (both mechanisms).

    Bigger pages collapse the TLB miss rate (starving SM's trigger) and
    coarsen what "sharing a page" means (inflating HM's false matches).
    Ground truth is always evaluated at 4 KiB.
    """
    from repro.tlb.pagetable import PageTableConfig

    topology = topology or harpertown()
    truth = oracle_matrix(
        make_npb_workload(workload_name, scale=scale,
                          seed=derive_seed(seed, workload_name, "pagesweep")),
        page_size=4096,
    )
    out = []
    for ps in page_sizes:
        sm_cfg = SystemConfig(
            tlb=TLBConfig(page_size=ps),
            page_table=PageTableConfig(page_size=ps),
            tlb_management=TLBManagement.SOFTWARE,
        )
        sm = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=4))
        res = Simulator(System(topology, sm_cfg)).run(
            make_npb_workload(workload_name, scale=scale,
                              seed=derive_seed(seed, workload_name, "pagesweep")),
            detectors=[sm],
        )
        hm_cfg = SystemConfig(
            tlb=TLBConfig(page_size=ps),
            page_table=PageTableConfig(page_size=ps),
        )
        hm = HardwareManagedDetector(8, DetectorConfig(hm_period_cycles=hm_period))
        Simulator(System(topology, hm_cfg)).run(
            make_npb_workload(workload_name, scale=scale,
                              seed=derive_seed(seed, workload_name, "pagesweep")),
            detectors=[hm],
        )
        out.append({
            "page_size": float(ps),
            "miss_rate": res.tlb_miss_rate,
            "sm_matches": float(sm.matches_found),
            "sm_accuracy": pearson_similarity(sm.matrix, truth),
            "hm_accuracy": pearson_similarity(hm.matrix, truth),
        })
    return out


def l2_tlb_sweep(
    workload_name: str = "sp",
    l2_entries: Sequence["int | None"] = (None, 128, 512, 2048),
    scale: float = 0.3,
    seed: int = 2012,
    topology: Optional[Topology] = None,
) -> List[Dict[str, float]]:
    """Effect of a second-level TLB on the SM mechanism's sample stream.

    L2-TLB hits refill the L1 TLB without a trap, so only walk-level
    misses feed SM — Nehalem-class cores thin the signal considerably.
    ``None`` or 0 entries means no L2 TLB.
    """
    topology = topology or harpertown()
    truth = oracle_matrix(
        make_npb_workload(workload_name, scale=scale,
                          seed=derive_seed(seed, workload_name, "l2tlb"))
    )
    out = []
    for entries in l2_entries:
        cfg = SystemConfig(
            tlb_management=TLBManagement.SOFTWARE,
            l2_tlb=(TLBConfig(entries=entries, ways=4) if entries else None),
        )
        det = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=4))
        system = System(topology, cfg)
        Simulator(system).run(
            make_npb_workload(workload_name, scale=scale,
                              seed=derive_seed(seed, workload_name, "l2tlb")),
            detectors=[det],
        )
        out.append({
            "l2_entries": float(entries or 0),
            "walks": float(system.page_table.walks),
            "searches": float(det.searches_run),
            "accuracy": pearson_similarity(det.matrix, truth),
        })
    return out


def mapper_comparison(
    workload_name: str = "sp",
    scale: float = 0.5,
    seed: int = 2012,
    topology: Optional[Topology] = None,
    include_brute_force: bool = True,
) -> Dict[str, float]:
    """Mapping cost of each algorithm on the oracle matrix of one benchmark.

    Lower is better; brute force is the exact optimum.  This is the
    quantitative backing for the paper's choice of Edmonds matching over
    simpler heuristics.
    """
    topology = topology or harpertown()
    wl = make_npb_workload(workload_name, scale=scale,
                           seed=derive_seed(seed, workload_name, "mappers"))
    oracle = oracle_matrix(wl)
    dist = topology.distance_matrix()
    n = oracle.num_threads
    out = {
        "hierarchical": mapping_cost(oracle, hierarchical_mapping(oracle, topology), dist),
        "greedy": mapping_cost(oracle, greedy_mapping(oracle, topology), dist),
        "drb": mapping_cost(oracle, drb_mapping(oracle, topology), dist),
        "round_robin": mapping_cost(oracle, round_robin_mapping(n, topology), dist),
        "random": mapping_cost(
            oracle, random_mapping(n, topology, derive_seed(seed, "rand-map")), dist
        ),
    }
    if include_brute_force:
        out["optimal"] = mapping_cost(oracle, brute_force_mapping(oracle, topology), dist)
    return out
