"""Tests for dynamic thread migration (the paper's future work).

The one remap controller is :class:`OnlineRemapController`: detection
events stream into a view, and the policy decides remap-or-hold against
the mapping in force, which the caller (the simulator, or ``drive``
below) passes in on every call.
"""

import pytest

from repro.core.detection import DetectorConfig
from repro.core.oracle import oracle_matrix
from repro.core.sm_detector import SoftwareManagedDetector
from repro.core.streaming import DecayedCommMatrix, SlidingWindowCommMatrix
from repro.machine.simulator import Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.mapping.hierarchical import hierarchical_mapping
from repro.mapping.online import OnlineRemapController, OnlineRemapPolicy
from repro.tlb.mmu import TLBManagement
from repro.workloads.synthetic import PhaseShiftWorkload

TOPO = harpertown()
IDENT = list(range(8))

EPOCH0 = [(0, 1), (2, 3), (4, 5), (6, 7)]
EPOCH1 = [(0, 4), (1, 5), (2, 6), (3, 7)]


class StubDetector:
    """Detector stand-in: the controller only registers its view as a sink."""

    num_threads = 8

    def __init__(self):
        self.sinks = []

    def add_sink(self, sink):
        self.sinks.append(sink)


def controller(**policy_options):
    det = StubDetector()
    ctl = OnlineRemapController(
        det, DecayedCommMatrix(8, 150_000), OnlineRemapPolicy(TOPO, **policy_options)
    )
    return det, ctl


def drive(ctl, det, pairs, start, mapping, count=40, step=10_000, weight=2.0):
    """Stream `pairs` events and tick the controller under `mapping`.

    The driver owns the mapping in force, as the simulator does: it is
    updated in place on every remap.  Returns the remaps as (now, mapping).
    """
    remaps = []
    now = start
    for _ in range(count):
        for sink in det.sinks:
            for i, j in pairs:
                sink(i, j, weight, now)
        result = ctl.on_tick(now, list(mapping))
        if result is not None:
            mapping[:] = result
            remaps.append((now, result))
        now += step
    return remaps


def reasons(ctl):
    return [d.reason for d in ctl.decisions]


class TestControllerLogic:
    def test_first_window_establishes_mapping(self):
        det, ctl = controller()
        mapping = list(IDENT)
        assert drive(ctl, det, EPOCH0, 0, mapping) == []
        log = reasons(ctl)
        # The first window with enough signal is adopted as what the
        # mapping in force is fit to; it is never acted on.
        first = log.index("hold:baseline")
        assert all(r == "hold:no-signal" for r in log[:first])
        assert log.count("hold:baseline") == 1
        # From then on the stable pattern is judged against that basis.
        assert set(log[first + 1:]) == {"hold:drift"}
        assert ctl.migrations == 0
        assert mapping == IDENT

    def test_no_action_without_signal(self):
        _, ctl = controller()
        assert ctl.on_tick(1_000, IDENT) is None
        assert ctl.on_phase_end(0, 2_000, IDENT) is None
        assert reasons(ctl) == ["hold:no-signal"] * 2
        assert ctl.migrations == 0

    def test_stable_pattern_no_remap(self):
        det, ctl = controller()
        mapping = list(IDENT)
        drive(ctl, det, EPOCH0, 0, mapping)
        # More of the same, at twice the rate.
        assert drive(ctl, det, EPOCH0, 1_000_000, mapping, weight=4.0) == []
        assert ctl.decisions[-1].reason == "hold:drift"
        assert ctl.migrations == 0

    def test_pattern_shift_triggers_remap(self):
        det, ctl = controller()
        mapping = list(IDENT)
        drive(ctl, det, EPOCH0, 0, mapping)
        # New epoch: communication now flows between the other pairs.
        remaps = drive(ctl, det, EPOCH1, 1_000_000, mapping)
        assert len(remaps) == 1
        assert ctl.migrations == 1
        for a, b in EPOCH1:
            assert TOPO.l2_of_core(mapping[a]) == TOPO.l2_of_core(mapping[b])

    def test_rate_limiter(self):
        det, ctl = controller()
        mapping = list(IDENT)
        drive(ctl, det, EPOCH0, 0, mapping)
        [(remapped_at, _)] = drive(ctl, det, EPOCH1, 1_000_000, mapping)
        # The pattern flips straight back: inside the cooldown every
        # decision holds on it.
        assert drive(ctl, det, EPOCH0, 1_400_000, mapping) == []
        later = [d.reason for d in ctl.decisions if d.now_cycles > remapped_at]
        assert set(later) == {"hold:cooldown"}
        # Once the cooldown has run out, the same flip remaps.
        resume = remapped_at + ctl.policy.cooldown_cycles
        assert len(drive(ctl, det, EPOCH0, resume, mapping)) == 1
        assert ctl.migrations == 2

    def test_hysteresis_blocks_marginal_remaps(self):
        det, ctl = controller(min_improvement=10.0)
        mapping = list(IDENT)
        drive(ctl, det, EPOCH0, 0, mapping)
        # Pattern changed, but a 10x-better placement is impossible.
        assert drive(ctl, det, EPOCH1, 1_000_000, mapping) == []
        log = reasons(ctl)
        held = log.index("hold:improvement")
        # The hold re-bases the drift gate on the window it judged, so
        # the next decision measures drift from there, not from EPOCH0.
        assert log[held + 1] == "hold:drift"
        assert ctl.migrations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineRemapPolicy(TOPO, drift_threshold=3.0)
        with pytest.raises(ValueError):
            OnlineRemapPolicy(TOPO, min_improvement=-1)
        with pytest.raises(ValueError):
            OnlineRemapPolicy(TOPO, cooldown_cycles=-1)
        with pytest.raises(ValueError):
            OnlineRemapController(
                StubDetector(), DecayedCommMatrix(8), tick_interval_cycles=-1
            )

    def test_summary(self):
        det, ctl = controller()
        mapping = list(IDENT)
        drive(ctl, det, EPOCH0, 0, mapping)
        drive(ctl, det, EPOCH1, 1_000_000, mapping)
        s = ctl.summary()
        assert s["migrations"] == 1
        assert s["decisions"] == len(ctl.decisions)
        assert s["decision_digest"] == ctl.decision_digest()
        # The one remap in the log is the mapping the driver now runs.
        assert [d.mapping for d in ctl.decisions if d.remap] == [mapping]


class TestEndToEndMigration:
    def _workload(self, iters=10):
        return PhaseShiftWorkload(num_threads=8, seed=9,
                                  iterations_per_epoch=iters)

    def _static_epoch0_mapping(self):
        phases = [p for p in self._workload().phases() if ".e0." in p.name]
        return hierarchical_mapping(oracle_matrix(phases), TOPO)

    def _static(self, iters=10):
        return Simulator(System(TOPO)).run(
            self._workload(iters), mapping=self._static_epoch0_mapping()
        )

    def _dynamic(self, iters=10):
        system = System(TOPO, SystemConfig(tlb_management=TLBManagement.SOFTWARE))
        det = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=2))
        ctl = OnlineRemapController(
            det, SlidingWindowCommMatrix(8, 300_000), OnlineRemapPolicy(TOPO)
        )
        res = Simulator(system).run(
            self._workload(iters), detectors=[det], migration_controller=ctl
        )
        return res, det, ctl

    def test_dynamic_beats_stale_static(self):
        """A static mapping optimal for the first epoch loses to dynamic
        migration once the pattern shifts."""
        static = self._static()
        dynamic, _, ctl = self._dynamic()
        # One remap, at the epoch shift: no thrashing.
        assert dynamic.migrations == ctl.migrations == 1
        assert dynamic.execution_cycles < static.execution_cycles
        assert dynamic.invalidations < static.invalidations

    def test_simulator_counts_migrated_threads(self):
        res, _, ctl = self._dynamic(4)
        assert res.migrations == ctl.migrations == 1
        assert res.threads_migrated == 6
        assert res.execution_cycles < self._static(4).execution_cycles

    def test_detector_rebound_after_migration(self):
        """After a migration the detector must attribute communication to
        threads, not cores: matrices stay valid."""
        res, det, _ = self._dynamic(6)
        assert res.migrations >= 1
        det.matrix.check_invariants()
        assert det.matrix.total > 0

    def test_bad_controller_mapping_rejected(self):
        class EvilController:
            tick_interval_cycles = 0
            migration_cost_cycles = 0

            def on_phase_end(self, idx, now, mapping):
                return [0] * 8  # non-injective

            def on_tick(self, now, mapping):
                return None

        with pytest.raises(ValueError, match="invalid mapping"):
            Simulator(System(TOPO)).run(
                self._workload(2), migration_controller=EvilController()
            )
