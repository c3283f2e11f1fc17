"""Extension — scaling with core count (Table I's complexity argument).

The paper's motivation for preferring SM grows with the machine: one SM
search is Θ(P) while one HM scan is Θ(P²·S).  We scale the machine from 8
to 32 cores (2 chips, wider L2 fan-out), measure both routines' *actual*
per-invocation time on warmed TLBs, and run the full detect→map pipeline
on a 16-thread workload to show the stack is not 8-core-specific.

The tracked ``benchmarks/out/ext_scaling.txt`` holds only what a re-run
reproduces (the comparison counts); the wall-clock timings go to stdout.
"""

import time

import numpy as np
from conftest import save_artifact

from repro.core.detection import DetectorConfig
from repro.core.hm_detector import HardwareManagedDetector
from repro.core.overhead import hm_scan_comparisons, sm_search_comparisons
from repro.core.sm_detector import SoftwareManagedDetector
from repro.machine.simulator import Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import multi_level
from repro.mapping.hierarchical import hierarchical_mapping
from repro.mapping.quality import mapping_cost
from repro.mapping.baselines import random_mapping
from repro.tlb.mmu import TLBManagement
from repro.util.render import format_table
from repro.workloads.synthetic import NearestNeighborWorkload


def warmed_system(topology, management=TLBManagement.HARDWARE) -> System:
    system = System(topology, SystemConfig(tlb_management=management))
    for core in range(topology.num_cores):
        for p in range(40):
            vpn = p if p % 4 == 0 else (core + 1) * 1000 + p
            system.mmus[core].translate(vpn << 12)
    return system


def time_routine(fn, *args, repeats=200) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - start) / repeats


def test_routine_scaling(benchmark, out_dir):
    def run():
        rows = []
        for l2_per_chip in (2, 4, 8):
            topo = multi_level(2, l2_per_chip, 2)
            p = topo.num_cores
            placement = {c: c for c in range(p)}
            sm_sys = warmed_system(topo, TLBManagement.SOFTWARE)
            sm = SoftwareManagedDetector(p, DetectorConfig(sm_sample_threshold=1))
            sm.attach(sm_sys, placement)
            sm_t = time_routine(sm._on_miss, 0, 4, 0)
            sm.detach()
            hm_sys = warmed_system(topo)
            hm = HardwareManagedDetector(p, DetectorConfig())
            hm.attach(hm_sys, placement)
            hm_t = time_routine(hm._scan, repeats=30)
            hm.detach()
            tlb = sm_sys.config.tlb
            rows.append({
                "cores": p,
                "sm_us": 1e6 * sm_t,
                "hm_us": 1e6 * hm_t,
                "sm_cmp": sm_search_comparisons(p, tlb),
                "hm_cmp": hm_scan_comparisons(p, tlb),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact(out_dir, "ext_scaling.txt", format_table(
        [[r["cores"], r["sm_cmp"], r["hm_cmp"]] for r in rows],
        header=["cores", "SM compares", "HM compares"],
    ))
    print(format_table(
        [[r["cores"], f"{r['sm_us']:.1f}", f"{r['hm_us']:.1f}"] for r in rows],
        header=["cores", "SM search (µs)", "HM scan (µs)"],
    ))

    # Analytic: SM grows linearly, HM quadratically, exactly.
    assert rows[2]["sm_cmp"] / rows[0]["sm_cmp"] == (32 - 1) / (8 - 1)
    assert rows[2]["hm_cmp"] / rows[0]["hm_cmp"] == (32 * 31) / (8 * 7)
    # Empirical: the HM/SM time gap widens with the machine.
    gap8 = rows[0]["hm_us"] / rows[0]["sm_us"]
    gap32 = rows[2]["hm_us"] / rows[2]["sm_us"]
    assert gap32 > gap8


def test_sixteen_thread_pipeline(benchmark, out_dir):
    """Full detect→map on a 16-core machine (nothing is 8-core-specific)."""
    topo = multi_level(2, 4, 2)  # 16 cores

    def run():
        wl = NearestNeighborWorkload(num_threads=16, seed=5, iterations=3,
                                     slab_bytes=48 * 1024, halo_bytes=8 * 1024)
        system = System(topo, SystemConfig(tlb_management=TLBManagement.SOFTWARE))
        det = SoftwareManagedDetector(16, DetectorConfig(sm_sample_threshold=3))
        Simulator(system).run(wl, detectors=[det])
        return det.matrix

    matrix = benchmark.pedantic(run, rounds=1, iterations=1)
    mapping = hierarchical_mapping(matrix, topo)
    assert sorted(mapping) == list(range(16))
    dist = topo.distance_matrix()
    rand_cost = np.mean([
        mapping_cost(matrix, random_mapping(16, topo, s), dist)
        for s in range(5)
    ])
    mapped_cost = mapping_cost(matrix, mapping, dist)
    save_artifact(
        out_dir, "ext_scaling_16threads.txt",
        matrix.heatmap("16-thread neighbour pattern (SM)") +
        f"\n\nmapping cost {mapped_cost:.0f} vs random mean {rand_cost:.0f}",
    )
    assert mapped_cost < 0.7 * rand_cost
