"""Extension — online detection + live remapping (paper future work, §VII).

The adaptive-vs-static study behind ``BENCH_remap.json``: same-space
repartitioned splices (one kernel instance whose thread roles are
permuted mid-run over persistent data — an AMR-style rebalance) are run
three ways:

* **static** — the identity mapping all the way through;
* **adaptive** — SM detection feeding a :class:`DecayedCommMatrix`, with
  :class:`OnlineRemapController` deciding remap-or-hold at barriers and
  mid-phase ticks, migration cost charged physically (per-thread cycles
  + destination-TLB flush);
* **oracle** — the inverse role permutation applied exactly at the
  splice boundary, paying the same migration bill (the upper bound an
  online policy can approach).

Two stable NPB kernels ride along as the no-thrash guard: the adaptive
run must hold (zero migrations) and therefore match the static run
cycle-for-cycle.

Knobs:

    REPRO_BENCH_REMAP_SCALE   splice workload scale   (default 0.7)
    REPRO_BENCH_REMAP_SEEDS   comma-separated seeds   (default 1,2,7)
"""

import json
import os
import pathlib

from conftest import save_artifact

from repro.core import DecayedCommMatrix, DetectorConfig, SoftwareManagedDetector
from repro.machine.simulator import SimConfig, Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.mapping.online import OnlineRemapController, OnlineRemapPolicy
from repro.tlb.mmu import TLBManagement
from repro.tlb.tlb import TLBConfig
from repro.util.render import format_table
from repro.workloads.composite import make_splice
from repro.workloads.npb import make_npb_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_remap.json"

NUM_THREADS = 8
SCALE = float(os.environ.get("REPRO_BENCH_REMAP_SCALE", "0.7"))
SEEDS = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_REMAP_SEEDS", "1,2,7").split(",")
]
STABLE_KERNELS = (("lu", 0.3, 1), ("sp", 0.3, 1))


def make_system():
    # The paper's SM setup: small software-managed TLBs whose miss traps
    # feed detection.
    return System(
        topology=harpertown(),
        config=SystemConfig(
            tlb=TLBConfig(entries=16, ways=4),
            tlb_management=TLBManagement.SOFTWARE,
        ),
    )


def detector():
    return SoftwareManagedDetector(
        NUM_THREADS, DetectorConfig(sm_sample_threshold=1)
    )


def splice(seed):
    return make_splice(
        ["ua", "ua"], num_threads=NUM_THREADS, scale=SCALE, seed=seed,
        repartition=True, shared_space=True,
    )


def run_static(workload):
    det = detector()
    return Simulator(make_system(), SimConfig()).run(workload, detectors=[det])


def run_adaptive(workload):
    det = detector()
    ctl = OnlineRemapController(
        det,
        DecayedCommMatrix(NUM_THREADS, 150_000),
        OnlineRemapPolicy(harpertown()),
    )
    res = Simulator(make_system(), SimConfig()).run(
        workload, detectors=[det], migration_controller=ctl
    )
    return res, ctl


class OracleController:
    """Applies the known-best mapping at the splice boundary, paying the
    same per-thread bill and destination flush the policy's model charges."""

    tick_interval_cycles = 0  # barrier-only

    def __init__(self, mapping, boundary_phase, cost_cycles):
        self.mapping = mapping
        self.boundary_phase = boundary_phase
        self.migration_cost_cycles = cost_cycles

    def on_phase_end(self, phase_index, now_cycles, mapping):
        if phase_index == self.boundary_phase:
            return list(self.mapping)
        return None

    def on_tick(self, now_cycles, mapping):
        return None


def run_oracle(workload_factory):
    workload = workload_factory()
    num_phases = len(list(workload.phases()))
    perm = workload.permutations[1]
    # Role r's data is warm on core r; after the repartition role r runs
    # as thread perm[r], so the locality-restoring mapping is the
    # inverse permutation.
    mapping = [0] * NUM_THREADS
    for role, thread in enumerate(perm):
        mapping[thread] = role
    cost = OnlineRemapPolicy(harpertown()).cost_model.per_thread_cycles
    ctl = OracleController(mapping, num_phases // 2 - 1, cost)
    det = detector()
    return Simulator(make_system(), SimConfig()).run(
        workload_factory(), detectors=[det], migration_controller=ctl
    )


def test_adaptive_vs_static_study(benchmark, out_dir):
    def run():
        splices = []
        for seed in SEEDS:
            static = run_static(splice(seed))
            adaptive, ctl = run_adaptive(splice(seed))
            oracle = run_oracle(lambda: splice(seed))
            splices.append({
                "workload": "ua+ua splice (shared space, repartition)",
                "seed": seed,
                "scale": SCALE,
                "static_cycles": static.execution_cycles,
                "adaptive_cycles": adaptive.execution_cycles,
                "oracle_cycles": oracle.execution_cycles,
                "adaptive_delta_cycles": (
                    static.execution_cycles - adaptive.execution_cycles
                ),
                "migrations": ctl.migrations,
                "threads_migrated": adaptive.threads_migrated,
                "charged_migration_cycles": (
                    adaptive.threads_migrated * ctl.migration_cost_cycles
                ),
                "decision_digest": ctl.decision_digest(),
            })
        stable = []
        for kernel, scale, seed in STABLE_KERNELS:
            static = run_static(
                make_npb_workload(kernel, num_threads=NUM_THREADS,
                                  scale=scale, seed=seed)
            )
            adaptive, ctl = run_adaptive(
                make_npb_workload(kernel, num_threads=NUM_THREADS,
                                  scale=scale, seed=seed)
            )
            stable.append({
                "workload": kernel,
                "seed": seed,
                "scale": scale,
                "static_cycles": static.execution_cycles,
                "adaptive_cycles": adaptive.execution_cycles,
                "migrations": ctl.migrations,
                "charged_migration_cycles": (
                    adaptive.threads_migrated * ctl.migration_cost_cycles
                ),
                "decision_digest": ctl.decision_digest(),
            })
        return splices, stable

    splices, stable = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            f"{r['workload']} s{r['seed']}",
            r["static_cycles"], r["adaptive_cycles"], r["oracle_cycles"],
            r["adaptive_delta_cycles"], r["migrations"],
        ]
        for r in splices
    ] + [
        [
            f"{r['workload']} (stable) s{r['seed']}",
            r["static_cycles"], r["adaptive_cycles"], "-",
            r["static_cycles"] - r["adaptive_cycles"], r["migrations"],
        ]
        for r in stable
    ]
    text = format_table(
        rows,
        header=["scenario", "static", "adaptive", "oracle", "delta", "migr"],
    )
    save_artifact(out_dir, "ext_dynamic_migration.txt", text)

    doc = {
        "config": {
            "num_threads": NUM_THREADS,
            "scale": SCALE,
            "seeds": SEEDS,
            "view": "DecayedCommMatrix(half_life_cycles=150000)",
            "policy": "OnlineRemapPolicy(harpertown) defaults",
        },
        "splices": splices,
        "stable": stable,
        "adaptive_wins": sum(
            1 for r in splices if r["adaptive_delta_cycles"] > 0
        ),
    }
    RESULT_PATH.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    # Acceptance: adaptive beats static on at least one phase-shifting
    # splice, and never loses more than the migration cost it was
    # charged for.
    assert doc["adaptive_wins"] >= 1, splices
    for r in splices:
        assert r["migrations"] >= 0
        assert (
            r["adaptive_cycles"]
            <= r["static_cycles"] + r["charged_migration_cycles"]
        ), r
    # No-thrash guard: stable kernels never migrate, so the adaptive run
    # is the static run, cycle for cycle.
    for r in stable:
        assert r["migrations"] == 0, r
        assert r["adaptive_cycles"] == r["static_cycles"], r
