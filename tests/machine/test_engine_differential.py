"""Differential harness: the batched engine must be bit-identical to scalar.

The batched engine (array passes over whole segments of the access
order, with an exact scalar fallback wherever an L2 could evict) is a
pure performance refactor — every counter the paper reports must match
the scalar reference exactly, access for access.  These tests run the
same workload through both engines and compare the *entire* SimResult,
including per-core cycles and per-phase breakdowns, plus every counter
of the memory system: each L1 and L2, the coherence bus, the
interconnect (message kinds in order of first use) and the NUMA model.
They cover the synthetic pattern classes, one NPB kernel per pattern
class plus IS (also under both detectors), the feature matrix (noise,
detectors, NUMA, Nehalem, remapping) and the configurations the batched
engine treats specially, and pin how a run is cut into segments.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import DetectorConfig
from repro.core.hm_detector import HardwareManagedDetector
from repro.core.sm_detector import SoftwareManagedDetector
from repro.machine.simulator import (
    ENGINES,
    NoiseConfig,
    SimConfig,
    Simulator,
    resolve_engine,
)
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown, nehalem
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.numa import NUMAConfig
from repro.tlb.mmu import TLBManagement
from repro.workloads import (
    AllToAllWorkload,
    FalseSharingWorkload,
    MasterWorkerWorkload,
    NearestNeighborWorkload,
    PhaseShiftWorkload,
    PipelineWorkload,
    PrivateWorkload,
    make_npb_workload,
)


def counters(system):
    """Every counter of ``system``'s memory side, as comparable values."""
    h = system.hierarchy
    ic = h.interconnect.stats
    numa = system.numa_model
    return {
        "l1": [dataclasses.asdict(c.stats) for c in h.l1s],
        "l2": [dataclasses.asdict(c.stats) for c in h.l2s],
        "coherence": dataclasses.asdict(h.stats),
        "l1_sibling_invalidations": h.l1_sibling_invalidations,
        "interconnect": (
            ic.intra_transactions, ic.inter_transactions,
            ic.intra_bytes, ic.inter_bytes, list(ic.by_kind.items()),
        ),
        "numa": None if numa is None else (
            numa.local_fetches, numa.remote_fetches, numa.homed_pages,
            getattr(numa, "page_migrations", 0),
        ),
    }


def run_engine(engine, make_workload, make_system=None, mapping=None,
               detectors=None, controller=None, **cfg_kwargs):
    """One run under ``engine`` with everything else freshly constructed.

    Returns the SimResult and the memory system's :func:`counters`.
    """
    system = make_system() if make_system else System(harpertown())
    cfg = SimConfig(engine=engine, **cfg_kwargs)
    dets = detectors() if detectors else []
    result = Simulator(system, cfg).run(
        make_workload(), mapping=mapping, detectors=dets,
        migration_controller=controller() if controller else None,
    )
    return result, counters(system)


def assert_identical(make_workload, make_system=None, mapping=None,
                     detectors=None, controller=None, **cfg_kwargs):
    """Run scalar and batched; every SimResult field and every memory
    counter must match exactly.  Returns the batched run's pair."""
    a, ca = run_engine("scalar", make_workload, make_system, mapping,
                       detectors, controller, **cfg_kwargs)
    b, cb = run_engine("batched", make_workload, make_system, mapping,
                       detectors, controller, **cfg_kwargs)
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    for field in da:
        assert da[field] == db[field], (
            f"engine divergence in {field!r}: scalar={da[field]!r} "
            f"batched={db[field]!r}"
        )
    for part in ca:
        assert ca[part] == cb[part], (
            f"engine divergence in {part} counters: scalar={ca[part]!r} "
            f"batched={cb[part]!r}"
        )
    return b, cb


SYNTHETIC_CLASSES = [
    NearestNeighborWorkload,
    PipelineWorkload,
    MasterWorkerWorkload,
    AllToAllWorkload,
    PhaseShiftWorkload,
    FalseSharingWorkload,
    PrivateWorkload,
]

#: One NPB kernel per pattern class (domain / homogeneous / none /
#: domain+distant), plus IS, the TLB-miss-heavy kernel whose staggered
#: exchange bursts share a segment; kept tiny: this is a correctness
#: diff, not a bench.
NPB_PER_CLASS = ["sp", "cg", "ep", "lu", "is"]


class TestSyntheticClasses:
    @pytest.mark.parametrize("cls", SYNTHETIC_CLASSES,
                             ids=lambda c: c.__name__)
    def test_pattern_class_identical(self, cls):
        assert_identical(lambda: cls(num_threads=8, seed=42))


class TestNPBKernels:
    @pytest.mark.parametrize("name", NPB_PER_CLASS)
    def test_npb_identical(self, name):
        assert_identical(
            lambda: make_npb_workload(name, num_threads=8, scale=0.08, seed=7)
        )


class TestISDetectors:
    """IS under both detection mechanisms: the SM hook fires inside the
    run heads' translations, the HM scan between rounds of bursts that
    share one segment."""

    @staticmethod
    def make_wl():
        return make_npb_workload("is", num_threads=8, scale=0.08, seed=7)

    def test_is_under_sm_detector(self):
        def sw_system():
            return System(harpertown(), SystemConfig(
                tlb_management=TLBManagement.SOFTWARE))

        res, _ = assert_identical(
            self.make_wl,
            make_system=sw_system,
            detectors=lambda: [SoftwareManagedDetector(
                8, DetectorConfig(sm_sample_threshold=4))],
        )
        assert res.detection["SM"]["matches_found"] > 0

    def test_is_under_hm_detector(self):
        res, _ = assert_identical(
            self.make_wl,
            detectors=lambda: [HardwareManagedDetector(
                8, DetectorConfig(hm_period_cycles=20_000))],
        )
        assert res.detection["HM"]["matches_found"] > 0


class TestFeatureMatrix:
    def make_wl(self):
        return NearestNeighborWorkload(num_threads=8, seed=3, iterations=3)

    def test_with_noise(self):
        assert_identical(
            self.make_wl,
            noise=NoiseConfig(preemption_rate=0.08, seed=11),
        )

    def test_with_remapping(self):
        assert_identical(self.make_wl, mapping=[7, 6, 5, 4, 3, 2, 1, 0])

    def test_with_hm_detector(self):
        assert_identical(
            self.make_wl,
            detectors=lambda: [HardwareManagedDetector(
                8, DetectorConfig(hm_period_cycles=20_000))],
        )

    def test_with_sm_detector(self):
        def sw_system():
            return System(harpertown(), SystemConfig(
                tlb_management=TLBManagement.SOFTWARE))

        assert_identical(
            self.make_wl,
            make_system=sw_system,
            detectors=lambda: [SoftwareManagedDetector(
                8, DetectorConfig(sm_sample_threshold=4))],
        )

    def test_with_numa(self):
        def numa_system():
            return System(harpertown(), SystemConfig(
                numa=NUMAConfig(local_latency=180, remote_penalty=120)))

        assert_identical(self.make_wl, make_system=numa_system)

    def test_on_nehalem(self):
        assert_identical(
            self.make_wl, make_system=lambda: System(nehalem()))

    def test_phase_stats(self):
        assert_identical(self.make_wl, collect_phase_stats=True)

    def test_small_quantum(self):
        assert_identical(self.make_wl, quantum=17)


class TickRemap:
    """Controller stub: ticks mid-phase and remaps on the second tick, so
    the batched engine resolves one segment per scheduling round."""

    migration_cost_cycles = 0
    tick_interval_cycles = 50_000

    def __init__(self):
        self.ticks = 0

    def on_phase_end(self, phase_index, now_cycles, mapping):
        return None

    def on_tick(self, now_cycles, mapping):
        self.ticks += 1
        return [1, 0, 3, 2, 5, 4, 7, 6] if self.ticks == 2 else None


class TestSpecialSegments:
    """Configurations the batched engine resolves differently."""

    def test_small_l2_evicts_through_the_scalar_path(self):
        _, c = assert_identical(
            lambda: make_npb_workload("sp", num_threads=8, scale=0.08, seed=7),
            make_system=lambda: System(harpertown(cache_scale=0.01)),
        )
        assert sum(l2["evictions"] for l2 in c["l2"]) > 0

    def test_autonuma_on_small_caches(self):
        def auto_numa_system():
            return System(harpertown(cache_scale=0.02), SystemConfig(
                numa=NUMAConfig(auto_migrate=True)))

        _, c = assert_identical(
            lambda: make_npb_workload("cg", num_threads=8, scale=0.08, seed=7),
            make_system=auto_numa_system,
        )
        assert sum(l2["evictions"] for l2 in c["l2"]) > 0

    def test_mid_phase_remap_segments_per_round(self):
        res, _ = assert_identical(
            lambda: make_npb_workload("ua", num_threads=8, scale=0.1, seed=1),
            controller=TickRemap,
        )
        assert res.migrations == 1

    def test_quantum_of_one(self):
        assert_identical(
            lambda: NearestNeighborWorkload(num_threads=8, seed=3, iterations=1),
            quantum=1,
        )

    def test_false_sharing_four_cores_per_llc(self):
        assert_identical(
            lambda: FalseSharingWorkload(num_threads=8, seed=5),
            make_system=lambda: System(nehalem()),
        )


class NeverRemap:
    """Controller stub that ticks every round and never remaps."""

    migration_cost_cycles = 0
    tick_interval_cycles = 1

    def on_phase_end(self, phase_index, now_cycles, mapping):
        return None

    def on_tick(self, now_cycles, mapping):
        return None


class TestSegmentation:
    """How the batched engine cuts a run into ``access_batch`` calls.

    IS runs a rank phase on every core, then four exchange bursts on
    disjoint core pairs: one segment for the rank phase and one for the
    four bursts.  Phase stats read cache counters at every barrier, so
    each phase is a segment; a ticking controller may remap between
    rounds, so each round is.  Totals are the same every way.
    """

    @staticmethod
    def run_counting(controller=None, **cfg_kwargs):
        system = System(harpertown())
        hierarchy = system.hierarchy
        calls = []

        def counting(cores, lines, writes, start, end):
            calls.append(end - start)
            return MemoryHierarchy.access_batch(
                hierarchy, cores, lines, writes, start, end)

        hierarchy.access_batch = counting
        result = Simulator(system, SimConfig(engine="batched", **cfg_kwargs)).run(
            make_npb_workload("is", num_threads=8, scale=1.0, seed=7),
            migration_controller=controller,
        )
        totals = dataclasses.asdict(result)
        del totals["phases"]
        return totals, calls

    def test_is_segments(self):
        workload = make_npb_workload("is", num_threads=8, scale=1.0, seed=7)
        phases = list(workload.phases())
        rounds = sum(-(-max(len(s) for s in p.streams) // SimConfig().quantum)
                     for p in phases)
        assert workload.iterations == 2 and len(phases) == 10

        coalesced, calls = self.run_counting()
        assert len(calls) == 2 * workload.iterations
        assert sum(calls) == coalesced["accesses"]
        per_phase, calls = self.run_counting(collect_phase_stats=True)
        assert len(calls) == 5 * workload.iterations
        per_round, calls = self.run_counting(controller=NeverRemap())
        assert len(calls) == rounds
        assert coalesced == per_phase == per_round


class TestPropertyRandomWorkloads:
    @settings(max_examples=12, deadline=None)
    @given(
        cls=st.sampled_from(SYNTHETIC_CLASSES),
        num_threads=st.sampled_from([2, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        quantum=st.sampled_from([64, 256, 1000]),
    )
    def test_random_synthetic_identical(self, cls, num_threads, seed, quantum):
        assert_identical(
            lambda: cls(num_threads=num_threads, seed=seed),
            quantum=quantum,
        )


class TestEngineSelection:
    def test_engines_constant(self):
        assert ENGINES == ("auto", "scalar", "batched")

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SimConfig(engine="turbo")

    def test_auto_resolves_to_batched(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert resolve_engine("auto") == "batched"

    def test_explicit_engines_pass_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert resolve_engine("scalar") == "scalar"
        assert resolve_engine("batched") == "batched"

    def test_env_override_wins_over_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "scalar")
        assert resolve_engine("auto") == "scalar"

    def test_env_override_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp")
        with pytest.raises(ValueError):
            resolve_engine("auto")
