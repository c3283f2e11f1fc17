"""End-to-end tests: live remapping inside the simulator.

The scenario is the one the adaptive-vs-static study uses: a
``shared_space`` UA splice whose second half permutes thread roles over
persistent data (a mid-run repartitioning).  Small scales keep the suite
fast; the full study lives in benchmarks/bench_ext_dynamic_migration.py.
"""

import pytest

from repro.core import (
    DecayedCommMatrix,
    DetectorConfig,
    SlidingWindowCommMatrix,
    SoftwareManagedDetector,
)
from repro.machine.simulator import SimConfig, Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.mapping.online import OnlineRemapController, OnlineRemapPolicy
from repro.tlb.mmu import TLBManagement
from repro.tlb.tlb import TLBConfig
from repro.workloads.composite import make_splice
from repro.workloads.npb import make_npb_workload
from repro.workloads.synthetic import PhaseShiftWorkload


def make_system():
    # The paper's SM setup: small software-managed TLBs, miss traps
    # hook detection.
    return System(
        topology=harpertown(),
        config=SystemConfig(
            tlb=TLBConfig(entries=16, ways=4),
            tlb_management=TLBManagement.SOFTWARE,
        ),
    )


def detector():
    return SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=1))


def splice(scale=0.4, seed=1):
    return make_splice(
        ["ua", "ua"], num_threads=8, scale=scale, seed=seed,
        repartition=True, shared_space=True,
    )


def run_static(workload):
    det = detector()
    return Simulator(make_system(), SimConfig()).run(workload, detectors=[det])


def run_adaptive(workload):
    det = detector()
    ctl = OnlineRemapController(
        det, DecayedCommMatrix(8, 150_000), OnlineRemapPolicy(harpertown())
    )
    res = Simulator(make_system(), SimConfig()).run(
        workload, detectors=[det], migration_controller=ctl
    )
    return res, ctl


class TestAdaptiveVsStatic:
    def test_adaptive_beats_static_on_repartitioned_splice(self):
        static = run_static(splice())
        res, ctl = run_adaptive(splice())
        assert ctl.migrations == 1
        assert res.threads_migrated > 0
        assert res.execution_cycles < static.execution_cycles

    def test_adaptive_holds_on_stable_kernel(self):
        workload = make_npb_workload("ua", num_threads=8, scale=0.25, seed=1)
        static = run_static(workload)
        workload = make_npb_workload("ua", num_threads=8, scale=0.25, seed=1)
        res, ctl = run_adaptive(workload)
        assert ctl.migrations == 0
        # No migrations -> the adaptive run is the static run.
        assert res.execution_cycles == static.execution_cycles


class TestDeterminism:
    def test_remap_decisions_byte_identical_across_runs(self):
        digests, cycles = [], []
        for _ in range(2):
            res, ctl = run_adaptive(splice(scale=0.3))
            digests.append(ctl.decision_digest())
            cycles.append(res.execution_cycles)
        assert digests[0] == digests[1]
        assert cycles[0] == cycles[1]


class ForcedRemap:
    """Barrier-only controller stub: remap to a fixed mapping at one barrier."""

    migration_cost_cycles = 17_160
    tick_interval_cycles = 0

    def __init__(self, mapping, at_phase):
        self.mapping = mapping
        self.at_phase = at_phase
        self.ticks = 0

    def on_phase_end(self, phase_index, now_cycles, mapping):
        if phase_index == self.at_phase:
            return list(self.mapping)
        return None

    def on_tick(self, now_cycles, mapping):
        self.ticks += 1
        return None


class TestMigrationPhysics:
    """Swap two threads that share pages: without the warm-up flush, the
    arriving thread would free-ride on the previous tenant's translations."""

    SWAP = [1, 0, 2, 3, 4, 5, 6, 7]

    @staticmethod
    def shared_phase(name):
        import numpy as np

        from repro.workloads.base import AccessStream, Phase

        shared = np.arange(8) * 4096  # threads 0 and 1 walk these pages
        streams = []
        for t in range(8):
            pages = shared if t < 2 else (np.arange(8) + 100 * (t + 1)) * 4096
            addrs = np.tile(pages, 40)
            streams.append(AccessStream(addrs, np.zeros(len(addrs), bool)))
        return Phase(name, streams)

    def run_phases(self, controller):
        return Simulator(make_system(), SimConfig()).run(
            [self.shared_phase("warm"), self.shared_phase("after")],
            migration_controller=controller,
        )

    def test_warmup_flush_charged_physically(self):
        swapped = self.run_phases(ForcedRemap(self.SWAP, at_phase=0))
        pinned = self.run_phases(None)
        assert swapped.threads_migrated == 2
        # The threads trade cores but walk the same 8 pages, so only the
        # destination-TLB flush makes each of the 2 re-walk all 8.
        assert swapped.tlb_misses == pinned.tlb_misses + 2 * 8


class TickCounter:
    """Controller stub: counts mid-phase ticks, remaps on the Nth."""

    migration_cost_cycles = 0
    tick_interval_cycles = 50_000

    def __init__(self, remap_on_tick=None, mapping=None):
        self.ticks = 0
        self.barriers = 0
        self.remap_on_tick = remap_on_tick
        self.mapping = mapping
        #: The mapping in force each callback was handed.
        self.seen = []

    def on_phase_end(self, phase_index, now_cycles, mapping):
        self.barriers += 1
        self.seen.append(list(mapping))
        return None

    def on_tick(self, now_cycles, mapping):
        self.ticks += 1
        self.seen.append(list(mapping))
        mapping.reverse()  # a copy: scribbling on it must not move threads
        if self.ticks == self.remap_on_tick:
            return list(self.mapping)
        return None


class TestMidPhaseTicks:
    def test_ticks_fire_between_barriers(self):
        ctl = TickCounter()
        det = detector()
        Simulator(make_system(), SimConfig()).run(
            make_npb_workload("ua", num_threads=8, scale=0.2, seed=1),
            detectors=[det],
            migration_controller=ctl,
        )
        assert ctl.ticks > ctl.barriers > 0

    def test_mid_phase_remap_applied(self):
        ctl = TickCounter(remap_on_tick=2, mapping=[1, 0, 2, 3, 4, 5, 6, 7])
        det = detector()
        res = Simulator(make_system(), SimConfig()).run(
            make_npb_workload("ua", num_threads=8, scale=0.2, seed=1),
            detectors=[det],
            migration_controller=ctl,
        )
        assert res.migrations == 1
        assert res.threads_migrated == 2

    def test_barrier_only_controller_unchanged(self):
        # tick_interval_cycles = 0 is the barrier-only contract.
        ctl = ForcedRemap([1, 0, 2, 3, 4, 5, 6, 7], at_phase=0)
        det = detector()
        res = Simulator(make_system(), SimConfig()).run(
            make_npb_workload("ua", num_threads=8, scale=0.2, seed=1),
            detectors=[det],
            migration_controller=ctl,
        )
        assert res.migrations == 1
        assert ctl.ticks == 0

    def test_hooks_see_the_mapping_in_force(self):
        start = [2, 3, 0, 1, 6, 7, 4, 5]
        swap = [3, 2, 0, 1, 6, 7, 4, 5]
        ctl = TickCounter(remap_on_tick=2, mapping=swap)
        res = Simulator(make_system(), SimConfig()).run(
            make_npb_workload("ua", num_threads=8, scale=0.2, seed=1),
            mapping=start,
            detectors=[detector()],
            migration_controller=ctl,
        )
        assert res.migrations == 1
        # Ticks 1-2 run under the starting mapping, every later callback
        # (ticks and barriers alike) under the remapped one.
        assert ctl.seen[:2] == [start, start]
        assert len(ctl.seen) > 2
        assert all(m == swap for m in ctl.seen[2:])


class TestMappingInForce:
    """The controller judges the placement the simulator runs, not one it
    assumed: started on a mapping already fit to the shifted pattern, it
    must never remap."""

    def test_controller_judges_the_simulators_starting_mapping(self):
        system = System(
            harpertown(), SystemConfig(tlb_management=TLBManagement.SOFTWARE)
        )
        det = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=2))
        ctl = OnlineRemapController(
            det, SlidingWindowCommMatrix(8, 300_000),
            OnlineRemapPolicy(harpertown()),
        )
        res = Simulator(system).run(
            PhaseShiftWorkload(num_threads=8, seed=9, iterations_per_epoch=10),
            mapping=[0, 4, 1, 5, 2, 6, 3, 7],
            detectors=[det],
            migration_controller=ctl,
        )
        assert res.migrations == ctl.migrations == 0
        prechecked = {"hold:no-signal", "hold:baseline", "hold:drift"}
        judged = [d.reason for d in ctl.decisions if d.reason not in prechecked]
        assert judged and set(judged) == {"hold:migration-cost"}
        # Pinned: the log of this placement judged from the first tick.
        assert ctl.decision_digest() == (
            "3fd1c4c363350963fc456636fe1bfaa9b660f8864ce0919048a46a3bdf42e90a"
        )
