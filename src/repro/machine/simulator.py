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

import itertools
import os
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, Set, Tuple, Union,
)

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

    A chunk's *heads* are its first access and every access to another
    page than the one before.  The other accesses repeat the page just
    translated on the same core, so they are TLB hits that leave the
    recency order as it is.

    Attributes:
        rounds: scheduling rounds in the phase.
        threads / addrs / writes: per access, in global order.
        chunk_start: global position of each chunk, plus the total at the end.
        chunk_thread: thread of each chunk.
        round_chunk: first chunk of each round, plus the chunk count at the end.
        head_vpns: page of each head, in global order.
        chunk_head: first head of each chunk, plus the head count at the end.
        repeats: accesses of each chunk that are not heads.
    """

    def __init__(self, streams: Sequence[AccessStream], quantum: int,
                 page_shift: int):
        n = np.array([len(s) for s in streams], np.int64)
        quanta = -(-n // quantum)
        self.rounds = int(quanta.max())
        rnd, thread = np.nonzero(np.arange(self.rounds)[:, None] < quanta[None, :])
        offset = rnd * quantum
        size = np.minimum(quantum, n[thread] - offset)
        self.chunk_start = np.zeros(len(size) + 1, np.int64)
        np.cumsum(size, out=self.chunk_start[1:])
        src = np.repeat(
            (np.cumsum(n) - n)[thread] + offset - self.chunk_start[:-1], size
        ) + np.arange(int(self.chunk_start[-1]))
        self.threads = np.repeat(thread, size)
        self.addrs = np.concatenate([s.addrs for s in streams])[src]
        self.writes = np.concatenate([s.writes for s in streams])[src]
        self.chunk_thread = thread.tolist()
        self.round_chunk = np.searchsorted(rnd, np.arange(self.rounds + 1)).tolist()
        vpns = self.addrs >> page_shift
        head = np.ones(len(vpns), bool)
        np.not_equal(vpns[1:], vpns[:-1], out=head[1:])
        head[self.chunk_start[:-1]] = True
        head_at = np.flatnonzero(head)
        self.head_vpns = vpns.take(head_at).tolist()
        chunk_head = np.searchsorted(head_at, self.chunk_start)
        self.chunk_head = chunk_head.tolist()
        self.repeats = (np.diff(self.chunk_start) - np.diff(chunk_head)).tolist()


def _disjoint_groups(phases: Iterable[Phase]) -> Iterator[List[Phase]]:
    """Consecutive phases whose active threads are pairwise disjoint.

    A thread is active in a phase if its stream there is not empty.  Under
    one mapping, disjoint threads run on disjoint cores.
    """
    group: List[Phase] = []
    busy: Set[int] = set()
    for phase in phases:
        active = {t for t, s in enumerate(phase.streams) if len(s)}
        if not busy.isdisjoint(active):
            yield group
            group, busy = [], set()
        group.append(phase)
        busy |= active
    if group:
        yield group


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

        def resolve(slices: List[Tuple[_GlobalOrder, int, int]]) -> List[List[int]]:
            """Resolve chunks ``first..last`` of each ``(order, first,
            last)``, in turn, as one segment.  Returns, per slice, the
            memory cycles of each of its chunks."""
            cores, lines, writes, heads = [], [], [], []
            at = 0
            for order, first, last in slices:
                lo = order.chunk_start[first]
                hi = order.chunk_start[last]
                cores.append(np.asarray(mapping, np.int64)[order.threads[lo:hi]])
                lines.append(order.addrs[lo:hi] >> line_shift)
                writes.append(order.writes[lo:hi])
                heads.append(order.chunk_start[first:last] - lo + at)
                at += int(hi - lo)
            per_chunk: List[int] = []
            if at:
                lat = access_batch(np.concatenate(cores), np.concatenate(lines),
                                   np.concatenate(writes), 0, at)
                per_chunk = np.add.reduceat(lat, np.concatenate(heads)).tolist()
            out = []
            at = 0
            for _order, first, last in slices:
                out.append(per_chunk[at:at + last - first])
                at += last - first
            return out

        def run_phase(order: _GlobalOrder, mem: Optional[List[int]]) -> None:
            """Run one phase's rounds.  ``mem`` holds each chunk's memory
            cycles, or is None to resolve one segment per round."""
            nonlocal next_tick
            chunk_start = order.chunk_start.tolist()
            chunk_thread = order.chunk_thread
            round_chunk = order.round_chunk
            if batched:
                head_vpns = order.head_vpns
                chunk_head = order.chunk_head
                repeats = order.repeats
            else:
                addrs = order.addrs.tolist()
                writes = order.writes.tolist()
            seg_mem = mem
            seg_chunk = 0
            for r in range(order.rounds):
                first = round_chunk[r]
                last = round_chunk[r + 1]
                if batched and mem is None:
                    # A tick may remap between rounds; nothing between
                    # quanta touches cache state.
                    seg_mem = resolve([(order, first, last)])[0]
                    seg_chunk = first
                for c in range(first, last):
                    t = chunk_thread[c]
                    core = mapping[t]
                    mmu = system.mmus[core]
                    # Quantum-start clock refresh: miss hooks (SM detection)
                    # receive this as the access timestamp, so trace events
                    # and streaming sinks are stamped with simulated time at
                    # quantum resolution.
                    mmu.now_cycles = core_cycles[core]
                    lo = chunk_start[c]
                    hi = chunk_start[c + 1]
                    if batched:
                        # Guaranteed-hit contract: quantum boundaries can
                        # flush/evict TLB entries (noise, migrations), so
                        # every head is a full translation; the repeats
                        # are hits on the page translated just before, and
                        # the quantum's last page stays resident.
                        cyc = (hi - lo) * base + seg_mem[c - seg_chunk]
                        tr = mmu.translate_vpn
                        h0 = chunk_head[c]
                        h1 = chunk_head[c + 1]
                        for vpn in head_vpns[h0:h1]:
                            cyc += tr(vpn)
                        if repeats[c]:
                            cyc += mmu.translate_batch(head_vpns[h1 - 1], repeats[c])
                    else:
                        tr = translate[core]
                        cyc = 0
                        for i in range(lo, hi):
                            addr = addrs[i]
                            cyc += base + tr(addr) + access(core, addr, writes[i])
                    core_cycles[core] += cyc
                    if noise_rngs is not None:
                        maybe_preempt(t, core)
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

        # Segments: one per group of consecutive phases on disjoint cores,
        # which never meet in a (core, L1 set) group; resolving them
        # together is exact while nothing reads or changes cache state at
        # their barriers.  A remap controller, phase stats and tracing do,
        # so then each phase is a segment (each round, when ticks may
        # remap mid-phase).
        phases = itertools.chain([first], rest)
        if batched and migration_controller is None and not want_snapshots:
            groups = _disjoint_groups(phases)
        else:
            groups = ([phase] for phase in phases)
        phase_index = -1
        for group in groups:
            orders = [_GlobalOrder(p.streams, quantum, page_shift) for p in group]
            mems: List[Optional[List[int]]] = [None] * len(group)
            for k, (phase, order) in enumerate(zip(group, orders)):
                phase_index += 1
                if phase_index:
                    # Barrier: everyone waits for the slowest core.
                    sync = max(core_cycles)
                    for c in range(num_cores):
                        core_cycles[c] = sync
                before = counters_snapshot() if want_snapshots else None
                pspan = (
                    tracer.begin(f"phase:{phase.name}", cat="sim.phase",
                                 cycles=before[0])
                    if traced
                    else None
                )
                if k == 0 and batched and on_tick is None:
                    mems = resolve([(o, 0, len(o.chunk_thread)) for o in orders])
                run_phase(order, mems[k])
                done = int(order.chunk_start[-1])
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
