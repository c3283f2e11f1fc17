"""Online remapping: hysteresis policy + migration cost model.

The paper's mapping is one-shot; its future-work section asks for "an
algorithm to detect when the communication pattern changes".  This module
is that algorithm's decision layer.  A streaming view of the
communication pattern (:mod:`repro.core.streaming`) supplies the
*current* matrix; the policy decides **remap or hold** by weighing the
predicted placement gain against an explicit migration cost model, with
two hysteresis gates:

* **minimum improvement** — the proposed placement must beat the one in
  force by a fraction of its cost (sampling noise must not trigger
  migrations), and the predicted cycle gain must exceed what the
  migration itself will cost;
* **cooldown** — at least ``cooldown_cycles`` between remaps, bounding
  thrash when the pattern oscillates near the decision boundary.

The cost model prices what the simulator then *charges physically*: each
moved thread pays the per-thread cycles on its destination core, and the
destination's TLB hierarchy is flushed, so the re-walk storm the model
prices actually happens in the run.

Everything here is deterministic: decisions are pure functions of the
window matrix, mapping, clock and policy parameters, and the controller
keeps a serializable decision log (:meth:`OnlineRemapController.
decision_digest`) that byte-determinism tests compare across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.commmatrix import CommunicationMatrix
from repro.core.detection import Detector
from repro.core.history import pattern_drift
from repro.machine.topology import Topology
from repro.mapping.hierarchical import hierarchical_mapping
from repro.mapping.quality import mapping_cost


@dataclass(frozen=True)
class MigrationCostModel:
    """Cycles one thread migration costs, decomposed by source.

    Attributes:
        context_switch_cycles: scheduler work to dequeue/enqueue and
            transfer architectural state.
        tlb_refill_entries: L1-TLB entries the thread re-faults on its
            new core (the destination TLB is flushed at migration).
        tlb_refill_cycles_per_entry: page-walk cost per refilled entry.
        cache_refill_lines: working-set lines refetched on the new core.
        cache_refill_cycles_per_line: fetch cost per line (L2/memory mix).
    """

    context_switch_cycles: int = 5_000
    tlb_refill_entries: int = 64
    tlb_refill_cycles_per_entry: int = 30
    cache_refill_lines: int = 256
    cache_refill_cycles_per_line: int = 40

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def per_thread_cycles(self) -> int:
        """Total warm-up penalty charged per migrated thread."""
        return (
            self.context_switch_cycles
            + self.tlb_refill_entries * self.tlb_refill_cycles_per_entry
            + self.cache_refill_lines * self.cache_refill_cycles_per_line
        )


@dataclass(frozen=True)
class RemapDecision:
    """One remap-or-hold verdict, with the numbers behind it."""

    remap: bool
    #: Why: "remap", "hold:cooldown", "hold:no-signal", "hold:baseline",
    #: "hold:drift", "hold:improvement", "hold:migration-cost",
    #: "hold:same-mapping".
    reason: str
    now_cycles: int
    current_cost: float
    proposed_cost: float
    #: Threads that would move (empty when holding).
    moved_threads: int
    #: Total migration cycles the move would charge.
    migration_cost_cycles: int
    #: Predicted cycle gain of the proposed placement (already net of
    #: nothing — compare against migration_cost_cycles).
    predicted_gain_cycles: float
    mapping: Optional[List[int]] = None
    #: Pattern drift of the window vs the basis (None when no basis).
    drift: Optional[float] = None

    def to_record(self) -> dict:
        """JSON-stable record (the decision-log serialization)."""
        return {
            "remap": self.remap,
            "reason": self.reason,
            "now_cycles": self.now_cycles,
            "current_cost": self.current_cost,
            "proposed_cost": self.proposed_cost,
            "moved_threads": self.moved_threads,
            "migration_cost_cycles": self.migration_cost_cycles,
            "predicted_gain_cycles": self.predicted_gain_cycles,
            "mapping": self.mapping,
            "drift": self.drift,
        }


class OnlineRemapPolicy:
    """Stateless remap-or-hold policy with hysteresis.

    Args:
        topology: machine topology (mapper + distance objective).
        cost_model: migration pricing; also exported to the simulator as
            the per-thread charge.
        min_improvement: the proposed mapping's cost must be at least
            this fraction below the current mapping's — a sanity floor,
            deliberately low.  ``mapping_cost`` only prices
            communication hops; the dominant benefit of a
            post-repartition remap is *data locality* (following the
            warm working set), which the hop objective cannot see, so
            a genuine phase shift often shows only a ~10% hop
            improvement.  Noise suppression is the drift gate's job,
            not this one's.
        drift_threshold: remap only when the window's pattern has
            drifted at least this much (0..2, see
            :func:`~repro.core.history.pattern_drift`) from the
            *basis* matrix the current mapping was fit to.  This is the
            structural phase-shift detector; a stable pattern refit by
            the mapper never passes it.  Measured steady-state drift of
            a stable NPB kernel under the SM detector stays below
            ~0.2; a repartitioning spikes it past 0.8.
        cooldown_cycles: minimum cycles between remaps — the thrash gate.
        min_window_communication: windows with less total signal hold
            unconditionally.
        gain_cycles_per_cost_unit: converts mapping-cost improvement
            (comm-amount × hop units) into predicted cycles, compared
            against the migration bill.  The default prices one unit of
            cross-hop communication at roughly one coherence round trip.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        cost_model: Optional[MigrationCostModel] = None,
        min_improvement: float = 0.08,
        drift_threshold: float = 0.3,
        cooldown_cycles: int = 1_500_000,
        min_window_communication: float = 10.0,
        gain_cycles_per_cost_unit: float = 2_000.0,
    ):
        if min_improvement < 0:
            raise ValueError("min_improvement must be non-negative")
        if not 0.0 <= drift_threshold <= 2.0:
            raise ValueError("drift_threshold must be in [0, 2]")
        if cooldown_cycles < 0:
            raise ValueError("cooldown_cycles must be non-negative")
        if gain_cycles_per_cost_unit <= 0:
            raise ValueError("gain_cycles_per_cost_unit must be positive")
        self.topology = topology or Topology()
        self.cost_model = cost_model or MigrationCostModel()
        self.min_improvement = min_improvement
        self.drift_threshold = drift_threshold
        self.cooldown_cycles = cooldown_cycles
        self.min_window_communication = min_window_communication
        self.gain_cycles_per_cost_unit = gain_cycles_per_cost_unit
        self._distance = self.topology.distance_matrix()

    def decide(
        self,
        window: CommunicationMatrix,
        current_mapping: Sequence[int],
        now_cycles: int,
        last_remap_cycles: Optional[int] = None,
        basis: Optional[CommunicationMatrix] = None,
    ) -> RemapDecision:
        """Remap-or-hold for one streaming window snapshot.

        ``basis`` is the matrix the current mapping was fit to (None on
        the very first window); when given, the drift gate applies.
        """
        drift = pattern_drift(window, basis) if basis is not None else None
        held = self.pre_gate(window, now_cycles, drift, last_remap_cycles)
        if held is not None:
            return held
        proposed = hierarchical_mapping(window, self.topology)
        return self.judge(window, current_mapping, proposed, now_cycles, drift)

    def _hold(self, reason: str, now_cycles: int, drift: Optional[float],
              cur: float = 0.0, prop: float = 0.0, moved: int = 0,
              gain: float = 0.0) -> RemapDecision:
        return RemapDecision(
            remap=False, reason=reason, now_cycles=now_cycles,
            current_cost=cur, proposed_cost=prop, moved_threads=moved,
            migration_cost_cycles=moved * self.cost_model.per_thread_cycles,
            predicted_gain_cycles=gain, drift=drift,
        )

    def pre_gate(
        self,
        window: CommunicationMatrix,
        now_cycles: int,
        drift: Optional[float],
        last_remap_cycles: Optional[int] = None,
    ) -> Optional[RemapDecision]:
        """The gates that hold *before* a placement is even computed.

        Split out so callers that obtain the proposed mapping elsewhere
        (the ``/map/delta`` service path routes solves through its
        canonical cache and micro-batcher) can skip the solve entirely
        when these hold.  Returns a hold decision, or None to proceed.
        """
        if window.total < self.min_window_communication:
            return self._hold("hold:no-signal", now_cycles, drift)
        if (
            last_remap_cycles is not None
            and now_cycles - last_remap_cycles < self.cooldown_cycles
        ):
            return self._hold("hold:cooldown", now_cycles, drift)
        if drift is not None and drift < self.drift_threshold:
            return self._hold("hold:drift", now_cycles, drift)
        return None

    def judge(
        self,
        window: CommunicationMatrix,
        current_mapping: Sequence[int],
        proposed: Sequence[int],
        now_cycles: int,
        drift: Optional[float],
    ) -> RemapDecision:
        """Weigh an already-computed placement against the one in force."""
        current_mapping = list(current_mapping)
        proposed = list(proposed)
        current_cost = mapping_cost(window, current_mapping, self._distance)
        proposed_cost = mapping_cost(window, proposed, self._distance)
        moved = sum(
            1 for t in range(len(current_mapping))
            if current_mapping[t] != proposed[t]
        )
        gain = (current_cost - proposed_cost) * self.gain_cycles_per_cost_unit
        if moved == 0:
            return self._hold(
                "hold:same-mapping", now_cycles, drift, current_cost,
                proposed_cost,
            )
        if proposed_cost * (1.0 + self.min_improvement) >= current_cost:
            return self._hold(
                "hold:improvement", now_cycles, drift, current_cost,
                proposed_cost, 0, gain,
            )
        bill = moved * self.cost_model.per_thread_cycles
        if gain < bill:
            return self._hold(
                "hold:migration-cost", now_cycles, drift, current_cost,
                proposed_cost, moved, gain,
            )
        return RemapDecision(
            remap=True, reason="remap", now_cycles=now_cycles,
            current_cost=current_cost, proposed_cost=proposed_cost,
            moved_threads=moved, migration_cost_cycles=bill,
            predicted_gain_cycles=gain, mapping=proposed,
            drift=drift,
        )


class OnlineRemapController:
    """Simulator migration hook driven by a streaming communication view.

    Wires the pieces together: registers the streaming ``view`` as a sink
    on the ``detector`` (so every detection event updates the window),
    and answers the simulator's callbacks (the
    :class:`~repro.machine.simulator.RemapHook` contract) with the
    policy's verdict on the mapping in force, which the simulator passes
    in.

    The controller decides at two cadences: the simulator's barrier
    callback (``on_phase_end``) and — when ``tick_interval_cycles`` is
    positive — mid-phase ticks (``on_tick``).  Ticks are what make the
    policy *live*: measurement shows a remap only pays while the shifted
    pattern's working set is still cold, i.e. during the first phase
    after the shift, which barriers are too late for.

    Args:
        detector: attached detection mechanism (SM or HM) to tap.
        view: streaming estimator (``DecayedCommMatrix`` or
            ``SlidingWindowCommMatrix``) fed from detection events.
        policy: remap-or-hold decision maker.
        tick_interval_cycles: minimum simulated cycles between mid-phase
            decision points (0 disables ticks; barrier-only).
    """

    def __init__(
        self,
        detector: Detector,
        view,
        policy: Optional[OnlineRemapPolicy] = None,
        tick_interval_cycles: int = 100_000,
    ):
        if tick_interval_cycles < 0:
            raise ValueError("tick_interval_cycles must be non-negative")
        self.detector = detector
        self.view = view
        self.policy = policy or OnlineRemapPolicy()
        self.tick_interval_cycles = tick_interval_cycles
        self._last_remap_cycles: Optional[int] = None
        #: Window the mapping in force was fit to (drift-gate reference).
        self._basis: Optional[CommunicationMatrix] = None
        self.migrations = 0
        self.decisions: List[RemapDecision] = []
        detector.add_sink(view.record)

    @property
    def migration_cost_cycles(self) -> int:
        """Per-thread charge the simulator applies at each migration."""
        return self.policy.cost_model.per_thread_cycles

    def on_phase_end(
        self, phase_index: int, now_cycles: int, mapping: Sequence[int]
    ) -> Optional[List[int]]:
        """Simulator barrier hook: returns a new mapping or None."""
        return self._step(now_cycles, mapping)

    def on_tick(
        self, now_cycles: int, mapping: Sequence[int]
    ) -> Optional[List[int]]:
        """Simulator mid-phase hook (same decision flow as barriers)."""
        return self._step(now_cycles, mapping)

    def _step(
        self, now_cycles: int, mapping: Sequence[int]
    ) -> Optional[List[int]]:
        self.view.advance(now_cycles)
        window = self.view.current()
        if (
            self._basis is None
            and window.total >= self.policy.min_window_communication
        ):
            # First windowed evidence: adopt it as what the initial
            # mapping is (implicitly) fit to.  Remapping is only ever a
            # *reaction to drift* from here — refitting the mapper to
            # the very first noisy window would migrate on noise.
            self._basis = window
            self.decisions.append(RemapDecision(
                remap=False, reason="hold:baseline", now_cycles=now_cycles,
                current_cost=0.0, proposed_cost=0.0, moved_threads=0,
                migration_cost_cycles=0, predicted_gain_cycles=0.0,
            ))
            return None
        decision = self.policy.decide(
            window,
            mapping,
            now_cycles,
            self._last_remap_cycles,
            basis=self._basis,
        )
        self.decisions.append(decision)
        if not decision.remap:
            if decision.reason == "hold:improvement":
                # The pattern drifted but the placement in force is
                # still (nearly) as good — track the drift instead of
                # re-arming the gate against a stale basis.
                self._basis = window
            return None
        self._basis = window
        self._last_remap_cycles = now_cycles
        self.migrations += 1
        return list(decision.mapping)

    def decision_digest(self) -> str:
        """SHA-256 over the canonical decision log.

        Two seeded runs of the same scenario must produce the same
        digest — the remap-determinism acceptance criterion.
        """
        payload = json.dumps(
            [d.to_record() for d in self.decisions],
            sort_keys=True, separators=(",", ":"),
        ).encode()
        return hashlib.sha256(payload).hexdigest()

    def summary(self) -> dict:
        """Controller statistics for result reports."""
        return {
            "migrations": self.migrations,
            "decisions": len(self.decisions),
            "hold_reasons": sorted(
                d.reason for d in self.decisions if not d.remap
            ),
            "per_thread_migration_cycles": self.migration_cost_cycles,
            "decision_digest": self.decision_digest(),
        }
