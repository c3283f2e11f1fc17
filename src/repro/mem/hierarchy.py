"""Two-level cache hierarchy: private write-through L1s over shared L2s.

Mirrors the paper's Table II / Figure 3 machine: each core has a private L1
(write-through, so the L2 always has current data), pairs of cores share a
write-back L2, and the L2s keep each other coherent over a MESI snooping
bus (:class:`~repro.mem.coherence.CoherenceBus`).

The hierarchy enforces *inclusion*: when an L2 line is invalidated or
evicted, the copies in the L1s above it are shot down (the bus's
invalidate hook).  A write by one core also invalidates the line in its
L1 *sibling* (the core sharing the L2) — the intra-pair coherence that
makes same-L2 sharing cheap but not free.

Two engines share one machine state.  :meth:`MemoryHierarchy.access` is
the scalar reference: one access at a time on the :class:`Cache` tag
stores.  :meth:`MemoryHierarchy.access_batch` resolves a whole segment of
the global access order with array passes (:mod:`repro.mem.segment`) on
an array copy of the same state.  Whichever engine ran last owns the
state; the other converts it on first use, so the caches seen through
:attr:`~MemoryHierarchy.l1s` and :attr:`~MemoryHierarchy.l2s` are always
current.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.mem.cache import Cache, CacheConfig, MESIState
from repro.mem.coherence import CoherenceBus, CoherenceStats, InvalidateHook
from repro.mem.interconnect import Interconnect, InterconnectConfig
from repro.mem.segment import (
    EMPTY,
    MODIFIED,
    SHARED,
    L2Wiring,
    LineDirectory,
    clocks,
    dense_ids,
    resolve_l1,
    resolve_mesi,
)

#: Subtracted from L1 stamps to make them LRU keys below every position
#: of a segment.
_OLD = 1 << 62

#: Holder bitmasks index tables of ``2 ** L2s`` entries; machines with
#: more L2s than this run every segment through the scalar path.
_MAX_ARRAY_L2 = 16

#: The arrays keep L2 stamps as 32-bit offsets from each L2's clock when
#: they took over the state; a segment that would overflow them runs the
#: scalar path.
_STAMP_SPAN = 1 << 31


@dataclass(frozen=True)
class AccessResult:
    """Verbose outcome of a single access (testing/debugging path)."""

    latency: int
    l1_hit: bool
    l2_hit: bool
    served_by: str  # "l1", "l2", "snoop", or "memory"


def _inclusion_hook(l1s: List[Cache], l2_cores: List[List[int]]) -> InvalidateHook:
    """Inclusion: drop a line from every L1 above the invalidated L2.

    A closure over the L1s, not a bound method: the bus keeps its hooks,
    and a hook holding the hierarchy would make a hierarchy -> bus ->
    hook -> hierarchy cycle that only the cyclic collector frees.
    """

    def hook(l2_id: int, line: int) -> None:
        for core in l2_cores[l2_id]:
            l1s[core].invalidate(line)

    return hook


class MemoryHierarchy:
    """All caches of one machine plus the coherence fabric.

    Args:
        num_cores: number of cores (each gets a private L1).
        core_to_l2: L2 cache id for each core (e.g. ``[0,0,1,1,2,2,3,3]``
            for the Harpertown pairing).
        chip_of_l2: chip/socket id of each L2.
        l1_config / l2_config: cache geometries (paper Table II defaults).
        interconnect: shared traffic model (constructed if omitted).
        memory_latency: DRAM fill cost in cycles.
    """

    def __init__(
        self,
        num_cores: int,
        core_to_l2: Sequence[int],
        chip_of_l2: Sequence[int],
        l1_config: Optional[CacheConfig] = None,
        l2_config: Optional[CacheConfig] = None,
        interconnect: Optional[Interconnect] = None,
        memory_latency: int = 200,
        memory_model: Optional[object] = None,
    ):
        if len(core_to_l2) != num_cores:
            raise ValueError("core_to_l2 must have one entry per core")
        num_l2 = max(core_to_l2) + 1
        if sorted(set(core_to_l2)) != list(range(num_l2)):
            raise ValueError("core_to_l2 must use contiguous L2 ids from 0")
        if len(chip_of_l2) != num_l2:
            raise ValueError(f"chip_of_l2 must have {num_l2} entries")

        self.num_cores = num_cores
        self.core_to_l2 = list(core_to_l2)
        self.l1_config = l1_config or CacheConfig(
            size=32 * 1024, ways=4, line_size=64, latency=2,
            write_back=False, name="L1",
        )
        self.l2_config = l2_config or CacheConfig(
            size=6 * 1024 * 1024, ways=8, line_size=64, latency=8,
            write_back=True, name="L2",
        )
        if self.l1_config.line_size != self.l2_config.line_size:
            raise ValueError("L1 and L2 must use the same line size")
        self._line_shift = self.l1_config.line_size.bit_length() - 1

        self._l1s: List[Cache] = [
            Cache(self.l1_config, owner_id=c) for c in range(num_cores)
        ]
        self._l2s: List[Cache] = [
            Cache(self.l2_config, owner_id=i) for i in range(num_l2)
        ]
        self.bus = CoherenceBus(
            self._l2s,
            chip_of=chip_of_l2,
            interconnect=interconnect or Interconnect(InterconnectConfig()),
            memory_latency=memory_latency,
            memory_model=memory_model,
        )
        # Cores above each L2, for sibling/inclusion shootdowns.
        self._l2_cores: List[List[int]] = [[] for _ in range(num_l2)]
        for core, l2 in enumerate(self.core_to_l2):
            self._l2_cores[l2].append(core)
        self.bus.add_invalidate_hook(_inclusion_hook(self._l1s, self._l2_cores))
        self.l1_sibling_invalidations = 0
        self._l1_lat = self.l1_config.latency  # hot-path hoist

        # Wiring tables for access_batch.
        self._l2_of_core = np.array(self.core_to_l2, np.int64)
        self._wiring = (
            L2Wiring(np.array(chip_of_l2, np.int64)) if num_l2 <= _MAX_ARRAY_L2 else None
        )
        self._reset_arrays()

    # -- state ownership -----------------------------------------------------------

    def _reset_arrays(self) -> None:
        """Empty array state, owning the (empty) machine state.

        L1 ways are rows ``core * num_sets + set`` of lines (EMPTY where
        free) and stamps; each L2 line has a directory row holding its
        state and stamp in every L2, and each L2 set its occupancy.
        """
        n1 = self.num_cores * self.l1_config.num_sets
        self._l1_line = np.full((n1, self.l1_config.ways), EMPTY, np.int64)
        self._l1_stamp = np.zeros((n1, self.l1_config.ways), np.int64)
        self._l2_dir = LineDirectory(len(self._l2s))
        self._l2_base = np.array([c._clock for c in self._l2s], np.int64)
        self._l2_occ = np.zeros((len(self._l2s), self.l2_config.num_sets), np.int64)
        self._arrays_own = True

    def _to_caches(self) -> None:
        """Hand the state from the arrays to the (empty) tag stores."""
        num_sets = self.l1_config.num_sets
        valid = np.flatnonzero(self._l1_line.ravel() != EMPTY)
        group = valid // self.l1_config.ways
        lines = self._l1_line.ravel()[valid]
        stamps = self._l1_stamp.ravel()[valid]
        order = np.lexsort((stamps, group))
        for g, x, st in zip(group[order].tolist(), lines[order].tolist(),
                            stamps[order].tolist()):
            self._l1s[g // num_sets]._sets[g % num_sets][x] = [1, st]
        d = self._l2_dir
        num_sets = self.l2_config.num_sets
        for c, cache in enumerate(self._l2s):
            rows = np.flatnonzero(d.holders[:d.used] & (1 << c))
            rows = rows[np.argsort(d.stamp[c, rows])]
            stamps = d.stamp[c, rows].astype(np.int64) + self._l2_base[c]
            sets = cache._sets
            for x, st, sp in zip(d.lines(rows).tolist(), d.state[rows].tolist(),
                                 stamps.tolist()):
                sets[x % num_sets][x] = [st, sp]
        self._reset_arrays()
        self._arrays_own = False

    def _to_arrays(self) -> bool:
        """Take the state from the tag stores into arrays, emptying them.

        Returns False, changing nothing, if an L2 stamp lies too far behind
        its cache's clock to keep as an offset.
        """
        l2_items = []
        for cache in self._l2s:
            items = [(x, e[0], e[1]) for s in cache._sets for x, e in s.items()]
            if items and min(it[2] for it in items) <= cache._clock - _STAMP_SPAN:
                return False
            l2_items.append(items)
        self._reset_arrays()
        for core, l1 in enumerate(self._l1s):
            row = core * self.l1_config.num_sets
            for s in l1._sets:
                for way, (x, entry) in enumerate(s.items()):
                    self._l1_line[row, way] = x
                    self._l1_stamp[row, way] = entry[1]
                s.clear()
                row += 1
        d = self._l2_dir
        for c, (cache, items) in enumerate(zip(self._l2s, l2_items)):
            self._l2_occ[c] = [len(s) for s in cache._sets]
            for s in cache._sets:
                s.clear()
            if items:
                lines, states, stamps = (np.array(a, np.int64) for a in zip(*items))
                order = np.argsort(lines)
                rows = d.rows(lines[order])
                d.holders[rows] |= 1 << c
                d.state[rows] = np.maximum(d.state[rows], states[order])
                d.stamp[c, rows] = stamps[order] - self._l2_base[c]
        return True

    def _access_each(
        self, cores: np.ndarray, lines: np.ndarray, writes: np.ndarray
    ) -> np.ndarray:
        """The scalar path for a segment: :meth:`access` per access."""
        access = self.access
        shift = self._line_shift
        return np.array([
            access(core, x << shift, w) for core, x, w in
            zip(cores.tolist(), lines.tolist(), writes.tolist())
        ], np.int64)

    @property
    def l1s(self) -> List[Cache]:
        """The private L1s (current whichever engine ran last)."""
        if self._arrays_own:
            self._to_caches()
        return self._l1s

    @property
    def l2s(self) -> List[Cache]:
        """The shared L2s (current whichever engine ran last)."""
        if self._arrays_own:
            self._to_caches()
        return self._l2s

    # -- access paths ------------------------------------------------------------

    def line_of(self, addr: int) -> int:
        """Cache-line number of a (physical or virtual) byte address."""
        return addr >> self._line_shift

    @property
    def line_shift(self) -> int:
        """log2(line size) — the addr→line shift."""
        return self._line_shift

    def access(self, core: int, addr: int, is_write: bool) -> int:
        """Perform one access; returns the latency in cycles.

        The hot path of the scalar engine: a read that hits L1 does one
        dict probe and returns.
        """
        if self._arrays_own:
            self._to_caches()
        line = addr >> self._line_shift
        l1s = self._l1s
        l1 = l1s[core]
        if is_write:
            # Write-through, no-write-allocate L1: the L1 copy (if any) is
            # updated in place; the write always reaches the L2.
            l1.lookup(line)  # LRU touch + hit/miss accounting
            l2_id = self.core_to_l2[core]
            latency = self._l1_lat + self.bus.write(l2_id, line)
            # Intra-pair coherence: the sibling's L1 copy is now stale.
            for sibling in self._l2_cores[l2_id]:
                if sibling != core:
                    if l1s[sibling].invalidate(line) != MESIState.INVALID:
                        self.l1_sibling_invalidations += 1
            return latency
        # Read path (any valid MESI state is truthy).
        if l1.lookup(line):
            return self._l1_lat
        latency = self._l1_lat + self.bus.read(self.core_to_l2[core], line)
        l1.insert(line, MESIState.SHARED)
        return latency

    def access_batch(
        self,
        cores: np.ndarray,
        lines: np.ndarray,
        writes: np.ndarray,
        start: int,
        end: int,
    ) -> np.ndarray:
        """Resolve accesses ``start..end`` of a segment in bulk.

        ``cores``, ``lines`` and ``writes`` are parallel arrays in the
        *global access order*: the order in which the simulator's
        round-robin feeds accesses to the hierarchy.  Returns each
        access's latency in cycles; the machine state and every counter
        end up bit-identical to ``end - start`` calls of :meth:`access`
        in that order.

        The segment is resolved as separate array passes
        (:mod:`repro.mem.segment`): LRU per (core, L1 set), then each
        line's MESI state across the L2s, then latencies and counters.
        That is exact only while no L2 evicts, so a segment in which some
        L2 set *could* overflow (its resident lines plus the distinct
        lines new to it exceed its ways) runs through :meth:`access`
        instead; so does every segment of a machine with more than
        ``_MAX_ARRAY_L2`` L2s, and one that would carry an L2 clock
        ``_STAMP_SPAN`` past the arrays' base.
        """
        cores = cores[start:end]
        lines = lines[start:end]
        writes = writes[start:end]
        if end <= start:
            return np.zeros(0, np.int64)
        clocks_now = np.array([c._clock for c in self._l2s], np.int64)
        if self._wiring is None or (
                not self._arrays_own and not self._to_arrays()) or (
                clocks_now + 2 * (end - start) - self._l2_base >= _STAMP_SPAN).any():
            return self._access_each(cores, lines, writes)
        d = self._l2_dir
        wiring = self._wiring
        num_l2 = len(self._l2s)
        num_sets = self.l2_config.num_sets
        ways = self.l2_config.ways
        l2 = self._l2_of_core.take(cores)
        ulines, u = dense_ids(lines)
        rows = d.rows(ulines)
        start_h = d.holders.take(rows)
        start_state = d.state.take(rows).astype(np.int64)
        line_set = ulines % num_sets
        # An L2 set could overflow if its resident lines plus the distinct
        # lines new to it exceed its ways.  The segment's distinct lines in
        # the set bound the new ones, so most segments pass on that alone.
        per_set = np.bincount(line_set, minlength=num_sets)
        if (self._l2_occ.max(0).take(line_set) + per_set.take(line_set) > ways).any():
            new = np.zeros((num_l2, len(ulines)), bool)
            new[l2, u] = True
            new &= (start_h & wiring.bit[:, None]) == 0
            c_at, u_at = np.nonzero(new)
            slot = c_at * num_sets + line_set.take(u_at)
            if (np.bincount(slot, minlength=num_l2 * num_sets).take(slot)
                    + self._l2_occ.ravel().take(slot) > ways).any():
                return self._access_each(cores, lines, writes)

        # Pass 1: L1s.  Reads that miss, and every write, reach the L2.
        l1o = resolve_l1(cores, lines, writes, ulines, u, self._l2_of_core,
                         self.l1_config.num_sets, self._l1_line,
                         self._l1_stamp - _OLD)
        ev_pos = np.flatnonzero(writes | ~l1o.hit)
        ev_l2 = l2.take(ev_pos)
        ev_u = u.take(ev_pos)
        ev_w = writes.take(ev_pos)

        # Pass 2: MESI per line across the L2s.
        mo = resolve_mesi(ev_l2, ev_u, ev_w, start_h, start_state, wiring)
        miss = ~mo.hit
        fetch = np.flatnonzero(miss & (mo.holders == 0))
        # Coherence traffic: misses another L2 serves, and upgrades.  A
        # write's snoop (RFO) invalidates every holder, an upgrade every
        # other one; an upgrade pays the slower of its invalidate rounds.
        co = np.flatnonzero(np.where(miss, mo.holders != 0, ev_w & (mo.state == SHARED)))
        co_l2 = ev_l2.take(co)
        co_h = mo.holders.take(co)
        co_w = ev_w.take(co)
        snoop = miss.take(co)
        upgrade = ~snoop
        inval = np.where(upgrade, co_h & ~wiring.bit.take(co_l2), np.where(co_w, co_h, 0))
        chip = wiring.chip.take(co_l2)
        sup_near = snoop & (wiring.chip.take(
            wiring.supplier.take((co_l2 << num_l2) + co_h)) == chip)
        sup_far = snoop & ~sup_near
        near = wiring.peers.take(co_l2)
        inval_near = np.where(upgrade, wiring.pop.take(inval & near), 0)
        inval_far = np.where(upgrade, wiring.pop.take(inval & ~near), 0)

        # Pass 3: latencies.  DRAM fills ask the memory model in global
        # order (AutoNUMA's migrations depend on it).
        ic = self.bus.interconnect.config
        ev_lat = np.where(ev_w, 0, self.l2_config.latency)
        memory_model = self.bus.memory_model
        if memory_model is None:
            ev_lat[fetch] += self.bus.memory_latency
        else:
            ev_lat[fetch] += np.array([
                memory_model.memory_latency(chip, x) for chip, x in zip(
                    wiring.chip.take(ev_l2.take(fetch)).tolist(),
                    ulines.take(ev_u.take(fetch)).tolist(),
                )
            ], np.int64)
        ev_lat[co] += (
            np.where(sup_near, ic.intra_chip_latency, 0)
            + np.where(sup_far, ic.inter_chip_latency, 0)
            + np.maximum(
                (inval_near > 0) * ic.intra_chip_invalidate_latency,
                (inval_far > 0) * ic.inter_chip_invalidate_latency,
            )
        )
        latency = np.full(end - start, self._l1_lat, np.int64)
        latency[ev_pos] += ev_lat

        # Counters.
        l1_hits = np.bincount(cores.compress(l1o.hit), minlength=self.num_cores).tolist()
        l1_accesses = np.bincount(cores, minlength=self.num_cores).tolist()
        for l1, hits, accesses, evictions, dropped in zip(
                self._l1s, l1_hits, l1_accesses, l1o.evictions.tolist(),
                l1o.invalidations.tolist()):
            l1.stats.hits += hits
            l1.stats.misses += accesses - hits
            l1.stats.evictions += evictions
            l1.stats.invalidations_received += dropped
        self.l1_sibling_invalidations += l1o.sibling
        bus_stats = self.bus.stats
        l2_events = np.bincount(ev_l2, minlength=num_l2).tolist()
        l2_misses = np.bincount(ev_l2.compress(miss), minlength=num_l2).tolist()
        invalidated = ((inval[:, None] & wiring.bit) != 0).sum(0)
        for c, (cache, events, misses, dropped) in enumerate(zip(
                self._l2s, l2_events, l2_misses, invalidated.tolist())):
            cache.stats.hits += events - misses
            cache.stats.misses += misses
            cache.stats.invalidations_received += dropped
            bus_stats.per_cache_misses[c] += misses
        n_snoop = int(np.count_nonzero(snoop))
        bus_stats.l2_misses += sum(l2_misses)
        bus_stats.snoop_transactions += n_snoop
        bus_stats.memory_fetches += len(fetch)
        bus_stats.upgrades += len(co) - n_snoop
        bus_stats.invalidations += int(invalidated.sum())
        bus_stats.writebacks_to_memory += int(
            np.count_nonzero(snoop & (mo.state.take(co) == MODIFIED))
        )
        ic_stats = self.bus.interconnect.stats
        line_size = self.l2_config.line_size
        n_near = int(np.count_nonzero(sup_near))
        n_far = n_snoop - n_near
        ic_stats.intra_transactions += n_near + int(inval_near.sum())
        ic_stats.inter_transactions += n_far + int(inval_far.sum())
        ic_stats.intra_bytes += n_near * line_size
        ic_stats.inter_bytes += n_far * line_size
        # Message kinds enter ``by_kind`` in order of first appearance.
        kinds = []
        for kind, per_event in (("snoop", snoop & ~co_w), ("rfo", snoop & co_w),
                                ("invalidate", inval_near + inval_far)):
            at = np.flatnonzero(per_event)
            if len(at):
                kinds.append((int(at[0]), kind, int(per_event.sum())))
        for _, kind, count in sorted(kinds):
            ic_stats.by_kind[kind] = ic_stats.by_kind.get(kind, 0) + count

        # End state.  Every lookup ticks a cache's clock and every fill
        # ticks it again; a line's stamp is the clock at its last touch.
        stamp_at, end_clock = clocks(
            cores, 1 + (~writes & ~l1o.hit),
            np.array([l1._clock for l1 in self._l1s], np.int64))
        for l1, clock in zip(self._l1s, end_clock.tolist()):
            l1._clock = clock
        self._l1_line[l1o.groups] = l1o.ways_line
        self._l1_stamp[l1o.groups] = np.where(
            l1o.ways_key >= 0, stamp_at.take(np.maximum(l1o.ways_key, 0)),
            l1o.ways_key + _OLD,
        )
        # Only lines with L2 events change; occupancy moves at the (L2,
        # set) slots of the lines an L2 gained or lost.
        t = mo.touched
        rt = rows.take(t)
        old = start_h.take(t)
        d.holders[rt] = mo.final_holders
        d.state[rt] = mo.final_state
        moved = np.flatnonzero(old != mo.final_holders)
        k_at, c_at = np.nonzero(
            (old ^ mo.final_holders).take(moved)[:, None] & wiring.bit)
        gained = (mo.final_holders.take(moved.take(k_at)) >> c_at) & 1
        np.add.at(self._l2_occ, (c_at, line_set.take(t.take(moved.take(k_at)))),
                  2 * gained - 1)
        stamp_at, end_clock = clocks(ev_l2, 1 + miss, clocks_now - self._l2_base)
        for cache, clock in zip(self._l2s, (end_clock + self._l2_base).tolist()):
            cache._clock = clock
        last = np.flatnonzero(mo.last_in_l2)
        d.stamp[ev_l2.take(last), rows.take(ev_u.take(last))] = stamp_at.take(last)
        return latency

    def access_verbose(self, core: int, addr: int, is_write: bool) -> AccessResult:
        """Like :meth:`access` but reports where the data came from (tests)."""
        line = addr >> self._line_shift
        l1_hit = self.l1s[core].probe(line) != MESIState.INVALID
        l2_id = self.core_to_l2[core]
        l2_hit = self.l2s[l2_id].probe(line) != MESIState.INVALID
        others = [
            cid for cid in range(len(self.l2s))
            if cid != l2_id and self.l2s[cid].probe(line) != MESIState.INVALID
        ]
        latency = self.access(core, addr, is_write)
        if not is_write and l1_hit:
            served = "l1"
        elif l2_hit:
            served = "l2"
        elif others:
            served = "snoop"
        else:
            served = "memory"
        return AccessResult(latency=latency, l1_hit=l1_hit, l2_hit=l2_hit, served_by=served)

    # -- statistics ----------------------------------------------------------------

    @property
    def stats(self) -> CoherenceStats:
        """Protocol counters (invalidations, snoops, L2 misses...)."""
        return self.bus.stats

    @property
    def interconnect(self) -> Interconnect:
        return self.bus.interconnect

    def l1_miss_rate(self) -> float:
        """Aggregate L1 miss rate across cores."""
        hits = sum(c.stats.hits for c in self._l1s)
        misses = sum(c.stats.misses for c in self._l1s)
        total = hits + misses
        return misses / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero all counters; cache *contents* are preserved."""
        for c in self._l1s + self._l2s:
            c.stats.__init__()
        self.bus.reset_stats()
        self.l1_sibling_invalidations = 0

    def flush_all(self) -> None:
        """Empty every cache (between independent runs)."""
        if not self._arrays_own:
            for c in self._l1s + self._l2s:
                c.flush()
        self._reset_arrays()
