"""Trace-driven multicore simulator.

Drives a workload's per-thread access streams through a :class:`System`
under a thread→core mapping, interleaving threads round-robin in quanta of
``quantum`` accesses so that concurrent sharing, MESI ping-pong and the
HM mechanism's temporal sampling are all meaningful.  Phase boundaries are
barriers: every core's clock is advanced to the slowest core's.

Per access, a core is charged: a base op cost, the translation cost (zero
on a TLB hit; walk + trap + detection-hook cycles on a miss) and the cache
access latency.  The execution time of the run is the maximum core clock —
the paper's measured quantity in Figure 6.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.machine.system import System
from repro.obs.metrics import global_registry
from repro.obs.trace import Span, get_tracer
from repro.util.rng import as_rng, derive_seed
from repro.workloads.base import AccessStream, Phase, Workload

#: Valid values of :attr:`SimConfig.engine`.
ENGINES = ("auto", "scalar", "batched")


def resolve_engine(engine: str) -> str:
    """Resolve an engine selector to a concrete engine name.

    ``"auto"`` picks the batched fast path unless the ``REPRO_SIM_ENGINE``
    environment variable forces one (the CI hook for running the same
    suite under both engines without touching configs).
    """
    if engine == "auto":
        forced = os.environ.get("REPRO_SIM_ENGINE", "").strip().lower()
        if not forced:
            return "batched"
        if forced not in ("scalar", "batched"):
            raise ValueError(
                f"REPRO_SIM_ENGINE must be 'scalar' or 'batched', "
                f"got {forced!r}"
            )
        return forced
    return engine


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs.

    Attributes:
        quantum: accesses per thread per scheduling round.  Small enough
            that threads genuinely overlap, large enough to amortize loop
            overhead.
        base_op_cycles: compute cycles charged per access (models the
            arithmetic between memory operations).
        charge_detection: whether detection-mechanism routine cycles perturb
            core clocks (True reproduces the paper's overhead measurements;
            False gives an idealized mechanism).
        collect_phase_stats: record a per-phase counter breakdown in
            ``SimResult.phases`` (time-resolved analysis, e.g. watching
            invalidations collapse after a dynamic remap).
        noise: optional OS-noise model (random preemptions + TLB flushes).
        engine: ``"scalar"`` (per-access reference loop), ``"batched"``
            (vectorized-precompute fast path; bit-identical counters), or
            ``"auto"`` (batched, overridable via ``REPRO_SIM_ENGINE``).
    """

    quantum: int = 256
    base_op_cycles: int = 1
    charge_detection: bool = True
    collect_phase_stats: bool = False
    noise: Optional[NoiseConfig] = None
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )


@dataclass(frozen=True)
class NoiseConfig:
    """OS-noise model: random preemptions hitting the application cores.

    Real machines run daemons, interrupts and kernel threads; each
    preemption steals cycles and (on return) leaves the TLB partly or
    fully cold.  This is the physical source of the run-to-run variance
    the paper's Table V reports — and a robustness test for the detection
    mechanisms, whose TLB contents get clobbered underneath them.

    Attributes:
        preemption_rate: probability that a thread's scheduling quantum is
            interrupted by a preemption.
        preemption_cost: cycles stolen per preemption.
        flush_tlb: whether the preempting work evicts the TLB (it ran its
            own address space).
        seed: noise stream seed — vary per run for ensemble variance.
    """

    preemption_rate: float = 0.01
    preemption_cost: int = 30_000
    flush_tlb: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.preemption_rate <= 1.0:
            raise ValueError("preemption_rate must be in [0, 1]")
        if self.preemption_cost < 0:
            raise ValueError("preemption_cost must be non-negative")


@dataclass(frozen=True)
class PhaseStats:
    """Counter deltas for one barrier-delimited phase."""

    name: str
    accesses: int
    cycles: int                 # growth of the max core clock
    invalidations: int
    snoop_transactions: int
    l2_misses: int
    tlb_misses: int


@dataclass
class SimResult:
    """Everything the paper measures for one run."""

    execution_cycles: int
    execution_seconds: float
    core_cycles: List[int]
    accesses: int
    invalidations: int
    snoop_transactions: int
    l2_misses: int
    memory_fetches: int
    l1_sibling_invalidations: int
    tlb_accesses: int
    tlb_misses: int
    inter_chip_transactions: int
    intra_chip_transactions: int
    detection: Dict[str, dict] = field(default_factory=dict)
    migrations: int = 0
    threads_migrated: int = 0
    #: OS-noise preemptions injected (when :attr:`SimConfig.noise` is set).
    preemptions: int = 0
    #: Per-phase counter deltas (populated when
    #: :attr:`SimConfig.collect_phase_stats` is set).
    phases: List["PhaseStats"] = field(default_factory=list)

    @property
    def tlb_miss_rate(self) -> float:
        """Fraction of accesses missing the TLB (Table III column 1)."""
        return self.tlb_misses / self.tlb_accesses if self.tlb_accesses else 0.0

    def per_second(self, value: float) -> float:
        """Convert an event count to events/second (Table IV rows)."""
        return value / self.execution_seconds if self.execution_seconds else 0.0

    @property
    def invalidations_per_second(self) -> float:
        return self.per_second(self.invalidations)

    @property
    def snoops_per_second(self) -> float:
        return self.per_second(self.snoop_transactions)

    @property
    def l2_misses_per_second(self) -> float:
        return self.per_second(self.l2_misses)


PhaseSource = Union[Workload, Iterable[Phase]]


class RemapHook(Protocol):
    """The contract of :meth:`Simulator.run`'s ``migration_controller``.

    Both callbacks receive a copy of the mapping in force (the simulator
    is the one source of truth for placement) and return a new
    thread→core mapping or None.  ``on_phase_end`` runs at every
    barrier; ``on_tick`` runs between scheduling rounds, at most every
    ``tick_interval_cycles`` (0 means barrier-only).  Every migration
    charges ``migration_cost_cycles`` per moved thread on its new core
    and flushes that core's TLBs.
    """

    tick_interval_cycles: int
    migration_cost_cycles: int

    def on_phase_end(
        self, phase_index: int, now_cycles: int, mapping: List[int]
    ) -> Optional[List[int]]:
        """Barrier callback: a new mapping to apply, or None."""

    def on_tick(self, now_cycles: int, mapping: List[int]) -> Optional[List[int]]:
        """Mid-phase callback: a new mapping to apply, or None."""


class _GlobalOrder:
    """One phase's accesses in the order the round-robin issues them.

    Round ``r`` runs, for each thread in ascending order that still has
    accesses, its quantum ``r``: one *chunk*.  The order depends only on
    the stream lengths and the quantum; the core of each access follows
    from :attr:`threads` and the mapping in force.

    Attributes:
        rounds: scheduling rounds in the phase.
        threads / lines / writes: per access, in global order.
        chunk_start: global position of each chunk, plus the total at the end.
        round_chunk: first chunk of each round, plus the chunk count at the end.
    """

    def __init__(self, streams: Sequence[AccessStream], lengths: List[int],
                 quantum: int, line_shift: int):
        n = np.array(lengths, np.int64)
        quanta = -(-n // quantum)
        self.rounds = int(quanta.max()) if len(n) else 0
        rnd, thread = np.nonzero(np.arange(self.rounds)[:, None] < quanta[None, :])
        offset = rnd * quantum
        size = np.minimum(quantum, n[thread] - offset)
        self.chunk_start = np.zeros(len(size) + 1, np.int64)
        np.cumsum(size, out=self.chunk_start[1:])
        src = np.repeat(
            (np.cumsum(n) - n)[thread] + offset - self.chunk_start[:-1], size
        ) + np.arange(int(self.chunk_start[-1]))
        self.threads = np.repeat(thread, size)
        self.lines = np.concatenate([s.addrs for s in streams])[src] >> line_shift
        self.writes = np.concatenate([s.writes for s in streams])[src]
        self.round_chunk = np.searchsorted(rnd, np.arange(self.rounds + 1))


class Simulator:
    """Runs workloads on a :class:`System`."""

    def __init__(self, system: Optional[System] = None, config: Optional[SimConfig] = None):
        self.system = system or System()
        self.config = config or SimConfig()

    def run(
        self,
        workload: PhaseSource,
        mapping: Optional[Sequence[int]] = None,
        detectors: Sequence[object] = (),
        reset: bool = True,
        migration_controller: Optional[RemapHook] = None,
    ) -> SimResult:
        """Simulate one full execution.

        Args:
            workload: a :class:`Workload` or an iterable of phases.
            mapping: ``mapping[t]`` = core running thread ``t``.  Must be a
                permutation prefix of the core set (the paper pins one
                thread per core).  Defaults to the identity.
            detectors: detection mechanisms implementing the
                :class:`~repro.core.detection.Detector` protocol; they are
                attached for the duration of the run.
            reset: start from cold caches/TLBs and zeroed counters.
            migration_controller: optional dynamic-mapping policy
                implementing :class:`RemapHook` (e.g.
                :class:`~repro.mapping.online.OnlineRemapController`).  A
                mapping it returns is applied at once — migration cost
                charged, destination TLBs flushed — and attached
                detectors are rebound to the new placement.
        """
        system = self.system
        phases = workload.phases() if isinstance(workload, Workload) else iter(workload)
        if reset:
            system.reset()

        first = next(phases, None)
        if first is None:
            raise ValueError("workload produced no phases")
        num_threads = first.num_threads
        if mapping is None:
            mapping = list(range(num_threads))
        else:
            mapping = list(mapping)
        if len(mapping) != num_threads:
            raise ValueError(
                f"mapping has {len(mapping)} entries for {num_threads} threads"
            )
        if len(set(mapping)) != num_threads:
            raise ValueError("mapping must place each thread on a distinct core")
        if max(mapping) >= system.num_cores or min(mapping) < 0:
            raise ValueError(
                f"mapping uses cores outside 0..{system.num_cores - 1}"
            )

        core_to_thread = {core: t for t, core in enumerate(mapping)}
        for det in detectors:
            det.attach(system, core_to_thread)
        tracer = get_tracer()
        engine = resolve_engine(self.config.engine)
        root = (
            tracer.begin(
                "simulate",
                cat="sim",
                args={"threads": num_threads, "engine": engine},
            )
            if tracer.enabled
            else None
        )
        try:
            result = self._run_phases(
                first, phases, mapping, detectors, migration_controller
            )
        except BaseException:
            if root is not None:
                tracer.end(root, args={"error": True})
            raise
        finally:
            for det in detectors:
                det.detach()
        if root is not None:
            tracer.end(
                root,
                cycles=result.execution_cycles,
                args={
                    "accesses": result.accesses,
                    "tlb_misses": result.tlb_misses,
                    "invalidations": result.invalidations,
                },
            )
        self._publish_run_metrics(engine, result)
        for det in detectors:
            result.detection[getattr(det, "name", type(det).__name__)] = det.summary()
        return result

    @staticmethod
    def _publish_run_metrics(engine: str, result: "SimResult") -> None:
        """Fold one run's aggregates into the process-wide registry."""
        reg = global_registry()
        labels = {"engine": engine}
        reg.counter("sim_runs_total", labels).inc()
        reg.counter("sim_accesses_total", labels).inc(result.accesses)
        reg.counter("sim_cycles_total", labels).inc(result.execution_cycles)
        reg.counter("sim_tlb_misses_total", labels).inc(result.tlb_misses)
        reg.counter("sim_preemptions_total", labels).inc(result.preemptions)

    # -- core loop -------------------------------------------------------------

    def _run_phases(
        self,
        first: Phase,
        rest: Iterable[Phase],
        mapping: List[int],
        detectors: Sequence[object],
        migration_controller: Optional[RemapHook] = None,
    ) -> SimResult:
        system = self.system
        cfg = self.config
        num_cores = system.num_cores
        core_cycles = [0] * num_cores
        total_accesses = 0
        quantum = cfg.quantum
        base = cfg.base_op_cycles
        charge = cfg.charge_detection
        translate = [mmu.translate for mmu in system.mmus]
        access = system.hierarchy.access
        access_batch = system.hierarchy.access_batch
        batched = resolve_engine(cfg.engine) == "batched"
        page_shift = system.mmus[0].page_shift
        line_shift = system.hierarchy.line_shift
        noise = cfg.noise
        noise_on = noise is not None and noise.preemption_rate > 0
        # One independent stream per thread, one draw per own quantum:
        # draws depend only on (thread, quantum index), never on mapping
        # or completion order, so identical seeds stay identical under
        # remapping (the reproducibility Table V's variance study needs).
        # Streams derive through util/rng's stable hash (RPL001): the
        # seed derivation is shared with every other stochastic
        # component instead of an ad-hoc tuple-seeded generator.
        noise_rngs = (
            [
                as_rng(derive_seed(noise.seed, "noise", t))
                for t in range(len(mapping))
            ]
            if noise_on
            else None
        )
        preemptions = 0

        def maybe_preempt(thread: int, core: int) -> None:
            nonlocal preemptions
            if noise_rngs[thread].random() >= noise.preemption_rate:
                return
            preemptions += 1
            core_cycles[core] += noise.preemption_cost
            if noise.flush_tlb:
                mmu = system.mmus[core]
                mmu.tlb.flush()
                if mmu.l2_tlb is not None:
                    mmu.l2_tlb.flush()

        # Mid-phase remapping: a controller with a positive
        # ``tick_interval_cycles`` is consulted *inside* phases, not just
        # at barriers.  Measurement motivates this: by the first barrier
        # after a pattern shift the new working set is warm, and a
        # migration's physical refetch storm exceeds any remaining
        # placement benefit — only a remap during the first phase of the
        # new pattern, while caches are still cold, can win.
        tick_interval = (
            migration_controller.tick_interval_cycles
            if migration_controller is not None
            else 0
        )
        on_tick = migration_controller.on_tick if tick_interval > 0 else None
        next_tick = tick_interval

        def run_phase(phase: Phase) -> int:
            nonlocal next_tick
            done = 0
            streams = phase.streams
            if batched:
                seqs = [s.sequences(page_shift) for s in streams]
                lengths = [sq.length for sq in seqs]
                order = _GlobalOrder(streams, lengths, quantum, line_shift)
                # One segment per phase, or per round when a tick may remap
                # mid-phase; nothing between quanta touches cache state.
                segment_rounds = 1 if on_tick is not None else order.rounds
                mem: List[int] = []
                chunk = seg_chunk = 0
            else:
                addrs = [s.addrs.tolist() for s in streams]
                writes = [s.writes.tolist() for s in streams]
                lengths = [len(a) for a in addrs]
            pos = [0] * len(streams)
            active = [t for t in range(len(streams)) if lengths[t]]
            round_index = 0
            while active:
                if batched and round_index % segment_rounds == 0:
                    first = order.round_chunk[round_index]
                    last = order.round_chunk[
                        min(round_index + segment_rounds, order.rounds)
                    ]
                    lo = order.chunk_start[first]
                    hi = order.chunk_start[last]
                    cores = np.asarray(mapping, np.int64)[order.threads[lo:hi]]
                    lat = access_batch(cores, order.lines[lo:hi],
                                       order.writes[lo:hi], 0, int(hi - lo))
                    mem = np.add.reduceat(
                        lat, order.chunk_start[first:last] - lo
                    ).tolist()
                    seg_chunk = first
                round_index += 1
                for t in active[:]:
                    core = mapping[t]
                    i = pos[t]
                    n = lengths[t]
                    end = min(i + quantum, n)
                    # Quantum-start clock refresh: miss hooks (SM detection)
                    # receive this as the access timestamp, so trace events
                    # and streaming sinks are stamped with simulated time at
                    # quantum resolution.
                    system.mmus[core].now_cycles = core_cycles[core]
                    if batched:
                        # Guaranteed-hit contract: quantum boundaries can
                        # flush/evict TLB entries (noise, migrations), so
                        # every quantum opens with a scalar translation and
                        # batches only the same-page run tails inside it.
                        sq = seqs[t]
                        vpns = sq.vpns
                        run_starts = sq.run_starts
                        mmu = system.mmus[core]
                        tr_vpn = mmu.translate_vpn
                        tr_batch = mmu.translate_batch
                        cyc = (end - i) * base + mem[chunk - seg_chunk]
                        chunk += 1
                        j = i
                        k = bisect_right(run_starts, j)
                        while j < end:
                            nxt = run_starts[k] if k < len(run_starts) else n
                            run_end = nxt if nxt < end else end
                            vpn = vpns[j]
                            cyc += tr_vpn(vpn)
                            if run_end - j > 1:
                                cyc += tr_batch(vpn, run_end - j - 1)
                            j = run_end
                            k += 1
                    else:
                        a = addrs[t]
                        w = writes[t]
                        tr = translate[core]
                        cyc = 0
                        while i < end:
                            addr = a[i]
                            cyc += base + tr(addr) + access(core, addr, w[i])
                            i += 1
                    core_cycles[core] += cyc
                    done += end - pos[t]
                    pos[t] = end
                    if noise_rngs is not None:
                        maybe_preempt(t, core)
                    if end == n:
                        active.remove(t)
                if detectors:
                    now = max(core_cycles)
                    for det in detectors:
                        polled = det.poll(now)
                        if polled is not None and charge:
                            # One (core, cost) charge per routine the
                            # detector ran this poll — catch-up bursts
                            # spread over distinct cores.
                            for core_id, cost in polled:
                                core_cycles[core_id] += cost
                if on_tick is not None:
                    now = max(core_cycles)
                    if now >= next_tick:
                        next_tick = now + tick_interval
                        proposed = on_tick(now, list(mapping))
                        if proposed is not None:
                            apply_mapping(list(proposed))
            return done

        migrations = 0
        threads_migrated = 0
        phase_stats: List[PhaseStats] = []
        collect_phases = cfg.collect_phase_stats
        tracer = get_tracer()
        traced = tracer.enabled
        # Tracing needs the same before/after counter snapshots the
        # phase-stats path takes; enable them for either consumer.
        want_snapshots = collect_phases or traced

        def counters_snapshot() -> Tuple[int, int, int, int, int]:
            h = system.hierarchy
            return (
                max(core_cycles),
                h.stats.invalidations,
                h.stats.snoop_transactions,
                h.stats.l2_misses,
                sum(t.stats.misses for t in system.tlbs),
            )

        def record_phase(
            phase: Phase,
            before: Tuple[int, int, int, int, int],
            accesses: int,
        ) -> None:
            after = counters_snapshot()
            phase_stats.append(PhaseStats(
                name=phase.name,
                accesses=accesses,
                cycles=after[0] - before[0],
                invalidations=after[1] - before[1],
                snoop_transactions=after[2] - before[2],
                l2_misses=after[3] - before[3],
                tlb_misses=after[4] - before[4],
            ))

        def apply_mapping(new_mapping: List[int], phase_index: int = -1) -> None:
            """Validate and apply a controller-requested remap.

            Shared by the barrier hook and the mid-phase tick path
            (``phase_index`` is -1 for ticks — the remap lands between
            scheduling rounds, not at a barrier).
            """
            nonlocal migrations, threads_migrated
            if sorted(set(new_mapping)) != sorted(new_mapping) or len(
                new_mapping
            ) != len(mapping):
                raise ValueError("migration controller returned an invalid mapping")
            if max(new_mapping) >= num_cores or min(new_mapping) < 0:
                raise ValueError("migration controller mapped outside the core set")
            moved = [t for t in range(len(mapping)) if mapping[t] != new_mapping[t]]
            if not moved:
                return
            cost = migration_controller.migration_cost_cycles
            for t in moved:
                core_cycles[new_mapping[t]] += cost
                # Charge the warm-up penalty *physically*, not just as a
                # lump of cycles: a migrated thread arrives at a core whose
                # TLBs hold the previous tenant's translations.  Flushing
                # the destination's TLB levels forces the re-walk storm the
                # cost model prices, so mispriced models show up as cycle
                # discrepancies in the adaptive-vs-static study.
                mmu = system.mmus[new_mapping[t]]
                mmu.tlb.flush()
                if mmu.l2_tlb is not None:
                    mmu.l2_tlb.flush()
            mapping[:] = new_mapping
            migrations += 1
            threads_migrated += len(moved)
            if traced:
                tracer.event(
                    "migration",
                    cat="sim.migration",
                    cycles=max(core_cycles),
                    args={"phase": phase_index, "moved": len(moved)},
                )
            core_to_thread = {core: t for t, core in enumerate(mapping)}
            for det in detectors:
                det.rebind(core_to_thread)

        def handle_migration(phase_index: int) -> None:
            if migration_controller is None:
                return
            new_mapping = migration_controller.on_phase_end(
                phase_index, max(core_cycles), list(mapping)
            )
            if new_mapping is None:
                return
            apply_mapping(list(new_mapping), phase_index)

        def trace_phase(
            before: Tuple[int, int, int, int, int], span: Span, done: int
        ) -> None:
            after = counters_snapshot()
            tracer.end(
                span,
                cycles=after[0],
                args={
                    "accesses": done,
                    "invalidations": after[1] - before[1],
                    "snoops": after[2] - before[2],
                    "l2_misses": after[3] - before[3],
                    "tlb_misses": after[4] - before[4],
                },
            )

        phase_index = 0
        before = counters_snapshot() if want_snapshots else None
        pspan = (
            tracer.begin(f"phase:{first.name}", cat="sim.phase", cycles=before[0])
            if traced
            else None
        )
        done = run_phase(first)
        total_accesses += done
        if pspan is not None:
            trace_phase(before, pspan, done)
        if collect_phases:
            record_phase(first, before, done)
        handle_migration(phase_index)
        for phase in rest:
            phase_index += 1
            # Barrier: everyone waits for the slowest core.
            sync = max(core_cycles)
            for c in range(num_cores):
                core_cycles[c] = sync
            before = counters_snapshot() if want_snapshots else None
            pspan = (
                tracer.begin(f"phase:{phase.name}", cat="sim.phase", cycles=before[0])
                if traced
                else None
            )
            done = run_phase(phase)
            total_accesses += done
            if pspan is not None:
                trace_phase(before, pspan, done)
            if collect_phases:
                record_phase(phase, before, done)
            handle_migration(phase_index)

        execution_cycles = max(core_cycles)
        h = system.hierarchy
        ic = h.interconnect.stats
        tlb_acc = sum(t.stats.accesses for t in system.tlbs)
        tlb_miss = sum(t.stats.misses for t in system.tlbs)
        return SimResult(
            execution_cycles=execution_cycles,
            execution_seconds=system.cycles_to_seconds(execution_cycles),
            core_cycles=list(core_cycles),
            accesses=total_accesses,
            invalidations=h.stats.invalidations,
            snoop_transactions=h.stats.snoop_transactions,
            l2_misses=h.stats.l2_misses,
            memory_fetches=h.stats.memory_fetches,
            l1_sibling_invalidations=h.l1_sibling_invalidations,
            tlb_accesses=tlb_acc,
            tlb_misses=tlb_miss,
            inter_chip_transactions=ic.inter_transactions,
            intra_chip_transactions=ic.intra_transactions,
            migrations=migrations,
            threads_migrated=threads_migrated,
            preemptions=preemptions,
            phases=phase_stats,
        )
