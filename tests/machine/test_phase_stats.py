"""Tests for per-phase statistics collection."""

import pytest

from repro.core.detection import DetectorConfig
from repro.core.sm_detector import SoftwareManagedDetector
from repro.core.streaming import SlidingWindowCommMatrix
from repro.machine.simulator import SimConfig, Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.mapping.online import OnlineRemapController, OnlineRemapPolicy
from repro.tlb.mmu import TLBManagement
from repro.workloads.synthetic import NearestNeighborWorkload, PhaseShiftWorkload

TOPO = harpertown()


def wl():
    return NearestNeighborWorkload(num_threads=8, seed=17, iterations=2,
                                   slab_bytes=32 * 1024, halo_bytes=8 * 1024)


class TestCollection:
    def test_disabled_by_default(self):
        res = Simulator(System(TOPO)).run(wl())
        assert res.phases == []

    def test_one_record_per_phase(self):
        res = Simulator(System(TOPO), SimConfig(collect_phase_stats=True)).run(wl())
        assert len(res.phases) == len(wl().materialize())
        assert [p.name for p in res.phases][:2] == ["compute0", "exchange0"]

    def test_deltas_sum_to_totals(self):
        res = Simulator(System(TOPO), SimConfig(collect_phase_stats=True)).run(wl())
        assert sum(p.accesses for p in res.phases) == res.accesses
        assert sum(p.invalidations for p in res.phases) == res.invalidations
        assert sum(p.snoop_transactions for p in res.phases) == res.snoop_transactions
        assert sum(p.l2_misses for p in res.phases) == res.l2_misses
        assert sum(p.tlb_misses for p in res.phases) == res.tlb_misses
        assert sum(p.cycles for p in res.phases) == res.execution_cycles

    def test_exchange_phases_carry_the_coherence_traffic(self):
        res = Simulator(System(TOPO), SimConfig(collect_phase_stats=True)).run(
            wl(), mapping=[0, 2, 4, 6, 1, 3, 5, 7]  # scatter: lots of traffic
        )
        compute = [p for p in res.phases if p.name.startswith("compute")]
        exchange = [p for p in res.phases if p.name.startswith("exchange")]
        # After warm-up, invalidations concentrate in exchange phases.
        assert sum(p.invalidations for p in exchange[1:]) > \
               sum(p.invalidations for p in compute[1:])


class TestDynamicMigrationVisibility:
    def test_invalidations_collapse_after_remap(self):
        """The per-phase series makes the remap visible: once the
        controller adapts to the shifted pattern, per-phase invalidations
        drop well below the pre-adaptation epoch-2 level."""
        system = System(TOPO, SystemConfig(tlb_management=TLBManagement.SOFTWARE))
        det = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=2))
        ctrl = OnlineRemapController(
            det, SlidingWindowCommMatrix(8, 300_000), OnlineRemapPolicy(TOPO)
        )
        res = Simulator(system, SimConfig(collect_phase_stats=True)).run(
            PhaseShiftWorkload(num_threads=8, seed=9, iterations_per_epoch=8),
            detectors=[det], migration_controller=ctrl,
        )
        assert res.migrations == 1
        e1 = [p for p in res.phases if ".e1." in p.name]
        # First epoch-1 phases run under the stale epoch-0 mapping; the
        # last ones run remapped.
        early = sum(p.invalidations for p in e1[:2]) / 2
        late = sum(p.invalidations for p in e1[-2:]) / 2
        assert late < early / 2
