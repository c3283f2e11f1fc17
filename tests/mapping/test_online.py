"""Tests for the online remap policy, cost model and controller."""

import numpy as np
import pytest

from repro.core.commmatrix import CommunicationMatrix
from repro.core.streaming import DecayedCommMatrix
from repro.machine.topology import harpertown
from repro.mapping.online import (
    MigrationCostModel,
    OnlineRemapController,
    OnlineRemapPolicy,
    RemapDecision,
)

IDENT = list(range(8))


def pair_matrix(pairs, weight=100.0):
    m = np.zeros((8, 8))
    for i, j in pairs:
        m[i, j] = m[j, i] = weight
    return CommunicationMatrix.from_array(m)


#: Neighbour pairs — identity placement is already good for these.
NEAR = [(0, 1), (2, 3), (4, 5), (6, 7)]
#: Cross pairs — identity is maximally wrong on a 2-chip machine.
FAR = [(0, 4), (1, 5), (2, 6), (3, 7)]


class TestMigrationCostModel:
    def test_per_thread_cycles_decomposition(self):
        m = MigrationCostModel()
        assert m.per_thread_cycles == 5_000 + 64 * 30 + 256 * 40

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            MigrationCostModel(context_switch_cycles=-1)


class TestPolicyGates:
    def setup_method(self):
        self.policy = OnlineRemapPolicy(harpertown())

    def test_no_signal_holds(self):
        d = self.policy.decide(pair_matrix(NEAR, 0.5), IDENT, 1_000)
        assert (d.remap, d.reason) == (False, "hold:no-signal")

    def test_cooldown_holds(self):
        d = self.policy.decide(
            pair_matrix(FAR), IDENT, 1_000_000,
            last_remap_cycles=900_000, basis=pair_matrix(NEAR),
        )
        assert (d.remap, d.reason) == (False, "hold:cooldown")

    def test_stable_pattern_holds_on_drift(self):
        window = pair_matrix(NEAR)
        d = self.policy.decide(
            window, IDENT, 1_000_000, basis=pair_matrix(NEAR, 80.0)
        )
        assert (d.remap, d.reason) == (False, "hold:drift")
        assert d.drift is not None and d.drift < self.policy.drift_threshold

    def test_shifted_pattern_remaps(self):
        d = self.policy.decide(
            pair_matrix(FAR), IDENT, 2_000_000, basis=pair_matrix(NEAR)
        )
        assert (d.remap, d.reason) == (True, "remap")
        assert d.drift > self.policy.drift_threshold
        assert d.moved_threads > 0
        assert d.migration_cost_cycles == (
            d.moved_threads * self.policy.cost_model.per_thread_cycles
        )
        assert d.predicted_gain_cycles > d.migration_cost_cycles
        assert sorted(d.mapping) == IDENT

    def test_same_mapping_holds(self):
        window = pair_matrix(FAR)
        first = self.policy.decide(
            window, IDENT, 2_000_000, basis=pair_matrix(NEAR)
        )
        d = self.policy.decide(
            window, first.mapping, 4_000_000, basis=pair_matrix(NEAR)
        )
        assert (d.remap, d.reason) == (False, "hold:same-mapping")

    def test_migration_cost_gate(self):
        stingy = OnlineRemapPolicy(
            harpertown(), gain_cycles_per_cost_unit=1.0
        )
        d = stingy.decide(
            pair_matrix(FAR), IDENT, 2_000_000, basis=pair_matrix(NEAR)
        )
        assert (d.remap, d.reason) == (False, "hold:migration-cost")

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineRemapPolicy(min_improvement=-0.1)
        with pytest.raises(ValueError):
            OnlineRemapPolicy(drift_threshold=3.0)
        with pytest.raises(ValueError):
            OnlineRemapPolicy(gain_cycles_per_cost_unit=0.0)


class StubDetector:
    """Minimal Detector stand-in: sink registration + thread count."""

    num_threads = 8

    def __init__(self):
        self.sinks = []

    def add_sink(self, sink):
        self.sinks.append(sink)

    def emit(self, i, j, amount, now):
        for sink in self.sinks:
            sink(i, j, amount, now)


def drive(ctl, det, pairs, start, mapping, count=40, step=10_000, weight=2.0):
    """Stream `pairs` events and tick the controller under `mapping`.

    The driver owns the mapping in force, as the simulator does: it is
    updated in place on every remap.  Returns the remaps.
    """
    remaps = []
    now = start
    for _ in range(count):
        for i, j in pairs:
            det.emit(i, j, weight, now)
        result = ctl.on_tick(now, list(mapping))
        if result is not None:
            mapping[:] = result
            remaps.append((now, result))
        now += step
    return remaps


class TestController:
    def make(self):
        det = StubDetector()
        view = DecayedCommMatrix(8, 150_000)
        ctl = OnlineRemapController(det, view, OnlineRemapPolicy(harpertown()))
        return det, ctl

    def test_registers_view_as_sink(self):
        det, ctl = self.make()
        assert det.sinks == [ctl.view.record]

    def test_first_signal_adopts_baseline(self):
        det, ctl = self.make()
        drive(ctl, det, NEAR, 0, list(IDENT), count=3)
        reasons = [d.reason for d in ctl.decisions]
        # Quiet ticks hold on no-signal; the first window with enough
        # evidence is adopted as the baseline, never acted on.
        assert "hold:baseline" in reasons
        first = reasons.index("hold:baseline")
        assert all(r == "hold:no-signal" for r in reasons[:first])
        assert ctl.migrations == 0

    def test_pattern_shift_triggers_one_remap(self):
        det, ctl = self.make()
        mapping = list(IDENT)
        drive(ctl, det, NEAR, 0, mapping)
        remaps = drive(ctl, det, FAR, 1_000_000, mapping)
        assert ctl.migrations == 1
        assert len(remaps) == 1
        _, remapped = remaps[0]
        assert mapping == remapped

    def test_stable_pattern_never_remaps(self):
        det, ctl = self.make()
        drive(ctl, det, NEAR, 0, list(IDENT), count=200)
        assert ctl.migrations == 0

    def test_migration_cost_exported_to_simulator(self):
        _, ctl = self.make()
        assert ctl.migration_cost_cycles == (
            ctl.policy.cost_model.per_thread_cycles
        )

    def test_tick_interval_validation(self):
        det = StubDetector()
        with pytest.raises(ValueError):
            OnlineRemapController(
                det, DecayedCommMatrix(8), tick_interval_cycles=-1
            )

    def test_decision_digest_deterministic(self):
        logs = []
        for _ in range(2):
            det, ctl = self.make()
            mapping = list(IDENT)
            drive(ctl, det, NEAR, 0, mapping)
            drive(ctl, det, FAR, 1_000_000, mapping)
            logs.append(ctl.decision_digest())
        assert logs[0] == logs[1]

    def test_decision_digest_sensitive_to_history(self):
        det, ctl = self.make()
        mapping = list(IDENT)
        drive(ctl, det, NEAR, 0, mapping)
        before = ctl.decision_digest()
        drive(ctl, det, FAR, 1_000_000, mapping)
        assert ctl.decision_digest() != before

    def test_summary_reports_decisions(self):
        det, ctl = self.make()
        drive(ctl, det, NEAR, 0, list(IDENT))
        s = ctl.summary()
        assert s["migrations"] == 0
        assert s["decisions"] == len(ctl.decisions)
        assert s["decision_digest"] == ctl.decision_digest()


class TestDecisionRecord:
    def test_to_record_round_trips_fields(self):
        d = RemapDecision(
            remap=True, reason="remap", now_cycles=5, current_cost=2.0,
            proposed_cost=1.0, moved_threads=3, migration_cost_cycles=9,
            predicted_gain_cycles=99.0, mapping=[1, 0], drift=0.5,
        )
        rec = d.to_record()
        assert rec["remap"] is True
        assert rec["mapping"] == [1, 0]
        assert rec["drift"] == 0.5
