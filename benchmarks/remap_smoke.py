"""Online-remapping smoke gate (``make remap-smoke``, wired into ci).

One small same-space repartitioned splice, three simulator runs:

* static vs adaptive — both cycle counts, the migration count, the
  threads moved and the full decision-log digest must equal the pinned
  values in ``EXPECTED``, so any change to the simulator, the detector
  or the remap policy that moves the outcome fails the gate;
* adaptive twice — the decision log digest and the cycle count must be
  byte-identical (the remap-determinism acceptance criterion).

A deliberate behaviour change re-pins ``EXPECTED`` from this script's
output, in the same commit as the change.

Scale 0.5 / seed 1 keeps the gate under ~20 s while still exercising
the full live path: SM detection events → streaming decayed view →
mid-phase ticks → hysteresis gates → physically charged migration.
"""

from __future__ import annotations

import sys

from repro.core import DecayedCommMatrix, DetectorConfig, SoftwareManagedDetector
from repro.machine.simulator import SimConfig, Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.mapping.online import OnlineRemapController, OnlineRemapPolicy
from repro.tlb.mmu import TLBManagement
from repro.tlb.tlb import TLBConfig
from repro.workloads.composite import make_splice

NUM_THREADS = 8
SCALE = 0.5
SEED = 1

#: The gate's pinned outcome (adaptive beats static by 118,903 cycles).
EXPECTED = {
    "static_cycles": 4_642_454,
    "adaptive_cycles": 4_523_551,
    "migrations": 1,
    "threads_migrated": 6,
    "decision_digest": (
        "35eb74ab9b83dda14e18d4d3a7e78f4c5663522a6aa2f917d6b08656b97f9691"
    ),
}


def make_system() -> System:
    return System(
        topology=harpertown(),
        config=SystemConfig(
            tlb=TLBConfig(entries=16, ways=4),
            tlb_management=TLBManagement.SOFTWARE,
        ),
    )


def workload():
    return make_splice(
        ["ua", "ua"], num_threads=NUM_THREADS, scale=SCALE, seed=SEED,
        repartition=True, shared_space=True,
    )


def run_static():
    det = SoftwareManagedDetector(
        NUM_THREADS, DetectorConfig(sm_sample_threshold=1)
    )
    return Simulator(make_system(), SimConfig()).run(
        workload(), detectors=[det]
    )


def run_adaptive():
    det = SoftwareManagedDetector(
        NUM_THREADS, DetectorConfig(sm_sample_threshold=1)
    )
    ctl = OnlineRemapController(
        det,
        DecayedCommMatrix(NUM_THREADS, 150_000),
        OnlineRemapPolicy(harpertown()),
    )
    res = Simulator(make_system(), SimConfig()).run(
        workload(), detectors=[det], migration_controller=ctl
    )
    return res, ctl


def main() -> int:
    static = run_static()
    first, first_ctl = run_adaptive()
    second, second_ctl = run_adaptive()

    delta = static.execution_cycles - first.execution_cycles
    print(
        f"remap-smoke: static={static.execution_cycles} "
        f"adaptive={first.execution_cycles} delta={delta} "
        f"migrations={first_ctl.migrations} "
        f"moved={first.threads_migrated}"
    )
    print(f"remap-smoke: digest={first_ctl.decision_digest()}")

    observed = {
        "static_cycles": static.execution_cycles,
        "adaptive_cycles": first.execution_cycles,
        "migrations": first_ctl.migrations,
        "threads_migrated": first.threads_migrated,
        "decision_digest": first_ctl.decision_digest(),
    }
    failures = [
        f"{key} = {observed[key]}, pinned {want}"
        for key, want in EXPECTED.items()
        if observed[key] != want
    ]
    if first_ctl.decision_digest() != second_ctl.decision_digest():
        failures.append("decision digests differ across identical runs")
    if first.execution_cycles != second.execution_cycles:
        failures.append("cycle counts differ across identical runs")
    for failure in failures:
        print(f"remap-smoke: FAIL — {failure}")
    if not failures:
        print("remap-smoke: outcome matches the pins, decisions byte-identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
