#!/usr/bin/env python3
"""Dynamic thread migration — the paper's future work, working.

A workload whose communication pattern flips mid-run: during the first
epoch threads pair (0,1)(2,3)(4,5)(6,7); in the second they pair
(0,4)(1,5)(2,6)(3,7).  A static mapping tuned to the first epoch turns
pathological after the shift.  The OnlineRemapController streams the SM
detector's events into a sliding window, notices the drift, and remaps
the stale mapping mid-run — once, paying a priced migration.

Run:  python examples/dynamic_migration.py
"""

from repro import (
    DetectorConfig,
    Simulator,
    SoftwareManagedDetector,
    System,
    SystemConfig,
    TLBManagement,
    harpertown,
    hierarchical_mapping,
    oracle_matrix,
)
from repro.core import SlidingWindowCommMatrix
from repro.mapping.online import OnlineRemapController, OnlineRemapPolicy
from repro.workloads.synthetic import PhaseShiftWorkload

TOPO = harpertown()


def workload():
    return PhaseShiftWorkload(num_threads=8, seed=9, iterations_per_epoch=10)


def main() -> None:
    wl = workload()
    print("Epoch 0 partners:", wl.partners(0))
    print("Epoch 1 partners:", wl.partners(1))
    print()

    # A static mapping, optimal for epoch 0 only.
    epoch0 = [p for p in workload().phases() if ".e0." in p.name]
    static_map = hierarchical_mapping(oracle_matrix(epoch0), TOPO)
    static = Simulator(System(TOPO)).run(workload(), mapping=static_map)

    # Dynamic: the same stale mapping to start, SM detection feeding a
    # sliding window, and the online remap policy deciding remap-or-hold.
    system = System(TOPO, SystemConfig(tlb_management=TLBManagement.SOFTWARE))
    detector = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=2))
    controller = OnlineRemapController(
        detector, SlidingWindowCommMatrix(8, 300_000), OnlineRemapPolicy(TOPO)
    )
    dynamic = Simulator(system).run(
        workload(), mapping=static_map, detectors=[detector],
        migration_controller=controller,
    )

    print(f"{'metric':<22} {'static (stale)':>15} {'dynamic':>12}")
    for label, attr in (
        ("execution cycles", "execution_cycles"),
        ("invalidations", "invalidations"),
        ("snoop transactions", "snoop_transactions"),
        ("inter-chip transfers", "inter_chip_transactions"),
    ):
        s = getattr(static, attr)
        d = getattr(dynamic, attr)
        print(f"{label:<22} {s:>15,} {d:>12,}  ({100 * (1 - d / s):+.1f}%)")
    print(f"\nmigrations: {dynamic.migrations} "
          f"(threads moved: {dynamic.threads_migrated})")
    print(f"starting mapping: {static_map}")
    print("remap decisions:")
    for d in controller.decisions:
        if d.remap:
            print(f"  cycle {d.now_cycles:,}: {d.mapping} "
                  f"(drift {d.drift:.2f}, {d.moved_threads} threads, "
                  f"predicted gain {d.predicted_gain_cycles:,.0f} "
                  f"vs bill {d.migration_cost_cycles:,} cycles)")


if __name__ == "__main__":
    main()
