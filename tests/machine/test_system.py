"""Tests for repro.machine.system — machine assembly."""

import pytest

from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.tlb.mmu import TLBManagement
from repro.tlb.pagetable import PageTableConfig
from repro.tlb.tlb import TLBConfig


class TestAssembly:
    def test_one_mmu_per_core(self):
        s = System(harpertown())
        assert len(s.mmus) == 8
        assert [m.core_id for m in s.mmus] == list(range(8))

    def test_shared_page_table(self):
        s = System(harpertown())
        assert all(m.page_table is s.page_table for m in s.mmus)

    def test_tlbs_accessor(self):
        s = System(harpertown())
        assert len(s.tlbs) == 8
        assert s.tlbs[3] is s.mmus[3].tlb

    def test_management_propagates(self):
        s = System(harpertown(), SystemConfig(tlb_management=TLBManagement.SOFTWARE))
        assert all(m.management is TLBManagement.SOFTWARE for m in s.mmus)
        assert all(m.trap_latency > 0 for m in s.mmus)

    def test_hierarchy_wiring_matches_topology(self):
        s = System(harpertown())
        assert s.hierarchy.core_to_l2 == [0, 0, 1, 1, 2, 2, 3, 3]
        assert len(s.hierarchy.l2s) == 4

    def test_page_size_consistency_enforced(self):
        with pytest.raises(ValueError):
            System(harpertown(), SystemConfig(
                tlb=TLBConfig(page_size=8192),
                page_table=PageTableConfig(page_size=4096),
            ))


class TestBehaviour:
    def test_cycles_to_seconds(self):
        s = System(harpertown(), SystemConfig(frequency_ghz=2.0))
        assert s.cycles_to_seconds(2_000_000_000) == pytest.approx(1.0)

    def test_tlb_miss_rate_aggregates(self):
        s = System(harpertown())
        s.mmus[0].translate(0x1000)
        s.mmus[0].translate(0x1000)
        s.mmus[1].translate(0x2000)
        assert s.tlb_miss_rate() == pytest.approx(2 / 3)

    def test_tlb_miss_rate_empty(self):
        assert System(harpertown()).tlb_miss_rate() == 0.0

    def test_reset_clears_state(self):
        s = System(harpertown())
        s.mmus[0].translate(0x1000)
        s.hierarchy.access(0, 0x1000, False)
        s.reset()
        assert s.tlb_miss_rate() == 0.0
        assert s.tlbs[0].occupancy() == 0
        assert s.hierarchy.stats.l2_misses == 0


class TestLifetime:
    """A finished System is freed by reference counting alone.

    The hierarchy's inclusion hook lives on the coherence bus; were it a
    bound method of the hierarchy, hierarchy -> bus -> hook -> hierarchy
    would be a cycle, and every dead machine (tens of thousands of set
    dicts) would wait for the cyclic collector.
    """

    @pytest.mark.parametrize("with_detectors", [False, True],
                             ids=["plain", "sm+hm"])
    def test_hierarchy_dies_with_its_system(self, with_detectors):
        import gc
        import weakref

        from repro.core.detection import DetectorConfig
        from repro.core.hm_detector import HardwareManagedDetector
        from repro.core.sm_detector import SoftwareManagedDetector
        from repro.machine.simulator import Simulator
        from repro.workloads import NearestNeighborWorkload

        system = System(harpertown(), SystemConfig(
            tlb_management=TLBManagement.SOFTWARE))
        detectors = [
            SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=4)),
            HardwareManagedDetector(8, DetectorConfig(hm_period_cycles=20_000)),
        ] if with_detectors else []
        Simulator(system).run(
            NearestNeighborWorkload(num_threads=8, seed=1, iterations=1),
            detectors=detectors,
        )
        hierarchy = weakref.ref(system.hierarchy)
        gc.disable()
        try:
            del system, detectors
            assert hierarchy() is None
        finally:
            gc.enable()
