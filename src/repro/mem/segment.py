"""Array passes of the segment engine behind :meth:`MemoryHierarchy.access_batch`.

A *segment* is a stretch of the global access order: the order in which
the simulator's round-robin feeds accesses to the hierarchy.  When no L2
set can overflow during a segment, two facts make an exact array
treatment possible:

* **L1 contents follow from the access order alone.**  Core k's L1 copy
  of line x is dropped exactly when another core writes x: a writer on
  the same L2 shoots it down directly, and any other writer invalidates
  the L2 copy (inclusion guarantees there is one), whose hook drops the
  L1 copy.  No MESI state is consulted, so the L1 pass runs first and
  yields which reads reach the L2.
* **Each line's MESI state evolves on its own.**  With no evictions a
  line's state is a holder bitmask plus an E/M flag; a write resets it to
  (writer, M) and every read since only adds its L2 to the holders.  A
  prefix maximum over each line's events gives the state before every
  event, whatever the depth of the line's event chain.

Both passes are pure functions of arrays.  The hierarchy keeps its state
as arrays between segments, feeds the passes the start state and writes
the end state and the counters back.  Cold traffic resolves in closed
form: writes no L1 can hold skip the L1 pass, a group's first touches of
lines are a FIFO (:func:`_fifo_prefix`), and a line with one L2 event
meets its start state (:func:`resolve_mesi`), so only lines that repeat
go through the sequential passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Way marker for a free L1 way (no line number can take this value).
EMPTY = np.iinfo(np.int64).min

#: MESI states as stored in the caches.
SHARED, EXCLUSIVE, MODIFIED = 1, 2, 3

#: When fewer groups than this are still active in an L1 lockstep step,
#: the remaining runs of those (deep) groups are finished in plain Python:
#: a numpy step costs the same for 1 group as for 1,000.
_TAIL_GROUPS = 16


def prev_marked(mark: np.ndarray) -> np.ndarray:
    """For each position, the last earlier position where ``mark`` holds, or -1."""
    last = np.where(mark, np.arange(len(mark)), -1)
    np.maximum.accumulate(last, out=last)
    out = np.empty_like(last)
    out[:1] = -1
    out[1:] = last[:-1]
    return out


def starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a sorted array takes a new value."""
    first = np.empty(len(sorted_values), bool)
    first[:1] = True
    first[1:] = sorted_values[1:] != sorted_values[:-1]
    return first


def row_any(mask: np.ndarray) -> np.ndarray:
    """Row-wise ``any`` of a C-contiguous 2-D bool array.

    Rows of 1, 2, 4 or 8 flags are read as one unsigned integer each,
    which is an order of magnitude faster than ``mask.any(1)``.
    """
    width = mask.shape[1]
    if width in (1, 2, 4, 8):
        return mask.view(f"u{width}")[:, 0] != 0
    return mask.any(1)


def ends(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the last position of each value in a sorted array."""
    last = np.empty(len(sorted_values), bool)
    last[-1:] = True
    last[:-1] = sorted_values[1:] != sorted_values[:-1]
    return last


def sort_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of small non-negative ``keys``.

    Packs each key with its position and sorts the values, which is several
    times faster than an index sort.
    """
    n = len(keys)
    packed = keys * n + np.arange(n)
    packed.sort()
    return packed % n


def clocks(
    keys: np.ndarray, ticks: np.ndarray, base: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per position, the clock of its key just after it; and each key's
    clock after the last position.

    Position i advances the clock of ``keys[i]`` by ``ticks[i]``; clock k
    starts at ``base[k]``; keys are small (cores or L2s).  One stable sort
    by key and a segmented cumsum.
    """
    o = np.argsort(keys.astype(np.int16), kind="stable")  # a radix sort
    k = keys.take(o)
    t = ticks.take(o)
    run = np.cumsum(t)
    run -= np.maximum.accumulate(np.where(starts(k), run - t, 0))
    run += base.take(k)
    at = np.empty_like(run)
    at[o] = run
    end = base.copy()
    last = np.flatnonzero(ends(k))
    end[k.take(last)] = run.take(last)
    return at, end


def dense_ids(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``values`` and each value's index among them."""
    n = len(values)
    lo = int(values.min())
    if (int(values.max()) - lo + 1) * n >= 1 << 62:
        return np.unique(values, return_inverse=True)
    packed = (values - lo) * n + np.arange(n)
    packed.sort()
    sorted_values = packed // n
    first = starts(sorted_values)
    ids = np.empty(n, np.int64)
    ids[packed % n] = np.cumsum(first) - 1
    return sorted_values[first] + lo, ids


@dataclass
class L1Outcome:
    """What the L1 pass resolved for one segment.

    Attributes:
        hit: per access, whether the line was in the core's L1 (a read
            served there, or a write's L1 touch hitting).
        evictions: per core, LRU victims of read fills.
        invalidations: per core, copies dropped by other cores' writes.
        sibling: how many of those a writer on the same L2 dropped.
        groups: touched ``core * num_sets + set`` ids, ascending.
        ways_line: final lines of each touched group, EMPTY where free.
        ways_key: LRU key of each way: the position of its last touch in
            the segment, or the (negative) start key for untouched lines.
    """

    hit: np.ndarray
    evictions: np.ndarray
    invalidations: np.ndarray
    sibling: int
    groups: np.ndarray
    ways_line: np.ndarray
    ways_key: np.ndarray


def resolve_l1(
    cores: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    ulines: np.ndarray,
    u: np.ndarray,
    l2_of_core: np.ndarray,
    num_sets: int,
    start_line: np.ndarray,
    start_key: np.ndarray,
) -> L1Outcome:
    """LRU per (core, L1 set), advanced in lockstep across groups.

    ``ulines``/``u`` are the segment's distinct lines and each access's
    index into them.  ``start_line``/``start_key`` hold every group's ways
    at the segment start (row ``core * num_sets + set``): its lines, EMPTY
    where free, and their LRU keys, all negative.  A group's events are
    its core's own accesses plus a removal for every other core's write
    to a line the core can hold.  Consecutive events on one line form a
    *run*; a run's effect depends only on whether the line was present
    when it began, so the lockstep advances one run per group and step.
    Groups that cannot overflow follow each line's chain of runs instead,
    and the others reach the lockstep only at their first revisit.
    """
    num_cores = len(l2_of_core)
    n = len(lines)
    ways = start_line.shape[1]

    # Which cores can hold each line during the segment: those holding it
    # at the start, and those that read it.  Flags per (line, core).
    may_hold = np.zeros(len(ulines) * num_cores, bool)
    reads = ~writes
    line_core = u * num_cores + cores
    may_hold[line_core.compress(reads)] = True
    resident = np.flatnonzero(start_line.ravel() != EMPTY)
    s_line = start_line.ravel().take(resident)
    su = np.minimum(np.searchsorted(ulines, s_line), len(ulines) - 1)
    known = np.flatnonzero(ulines.take(su) == s_line)
    may_hold[su.take(known) * num_cores
             + resident.take(known) // ways // num_sets] = True

    # Own events: every read, and each write whose core may hold the line.
    # Any other write misses its L1 and moves no LRU order, so it never
    # enters the event order.
    own_pos = np.flatnonzero(may_hold.take(line_core))
    # Removal events: every other core's write to a line it may hold.
    w_pos = np.flatnonzero(writes)
    holders = may_hold.reshape(-1, num_cores).take(u.take(w_pos), axis=0)
    holders.ravel()[np.arange(len(w_pos)) * num_cores + cores.take(w_pos)] = False
    shared = row_any(holders)
    w_at, x_core = np.nonzero(holders.compress(shared, axis=0))
    x_pos = w_pos.compress(shared).take(w_at)
    if not len(own_pos) + len(x_pos):
        # No line of the segment is, or gets, in an L1 its core touches:
        # every access misses and no L1 changes.
        none = np.zeros(num_cores, np.int64)
        return L1Outcome(hit=np.zeros(n, bool), evictions=none,
                         invalidations=none, sibling=0,
                         groups=np.zeros(0, np.int64),
                         ways_line=start_line[:0], ways_key=start_key[:0])

    # Events sorted by (group, position).  A key decodes to its group and
    # position; the event is the group's own access iff the core at that
    # position is the group's core, else a removal.
    sets = lines % num_sets
    keys = np.concatenate([
        (cores.take(own_pos) * num_sets + sets.take(own_pos)) * n + own_pos,
        (x_core * num_sets + sets.take(x_pos)) * n + x_pos,
    ])
    keys.sort()
    g = keys // n
    p = keys - g * n
    core_of = g // num_sets
    own = cores.take(p) == core_of
    x = lines.take(p)
    is_read = own & reads.take(p)
    decides = is_read | ~own  # reads fill, removals drop; writes never allocate
    e_total = len(keys)

    new_run = starts(g) | starts(x)
    run_first = np.flatnonzero(new_run)
    run_id = np.cumsum(new_run) - 1
    n_runs = len(run_first)
    run_last = np.empty(n_runs, np.int64)
    run_last[:-1] = run_first[1:] - 1
    run_last[-1] = e_total - 1
    run_reads = np.logical_or.reduceat(is_read, run_first)
    last_decider = np.maximum.reduceat(
        np.where(decides, np.arange(e_total), -1), run_first
    )
    run_decided = last_decider >= run_first
    run_ends_in = run_decided & is_read.take(last_decider)
    run_line = x.take(run_first)
    run_key = p.take(run_last)
    run_group = g.take(run_first)
    group_start = starts(run_group)
    group_first = np.flatnonzero(group_start)
    groups = run_group.take(group_first)
    run_g = np.cumsum(group_start) - 1

    ways_line = start_line.take(groups, axis=0)
    ways_key = start_key.take(groups, axis=0)
    occ0 = np.count_nonzero(ways_line != EMPTY, axis=1)
    run_p0 = np.zeros(n_runs, bool)
    run_evict = np.zeros(n_runs, bool)
    evicted = np.zeros(len(groups), np.int64)

    # One (group, line)-major order of the runs serves three rules.  A
    # group's *first touch* of a line is its first run on a line it did
    # not hold at the start; every other run is a *revisit*.
    num_u = len(ulines)
    pair = run_g * num_u + u.take(p.take(run_first))
    by_pair = sort_order(pair)
    pair = pair.take(by_pair)
    pair_at = np.flatnonzero(starts(pair))
    first_of = by_pair.take(pair_at)
    pair_g = run_g.take(first_of)
    eq = ways_line.take(pair_g, axis=0) == run_line.take(first_of)[:, None]
    held = row_any(eq)
    # Calm groups can hold every line they see (the start content plus the
    # lines read fit in the ways), so they never evict and each line's
    # presence follows its own chain of runs, at any depth.
    pair_reads = np.logical_or.reduceat(run_reads.take(by_pair), pair_at)
    calm = occ0 + np.bincount(pair_g.compress(pair_reads & ~held),
                              minlength=len(groups)) <= ways
    in_calm = calm.take(run_g)
    chained = np.flatnonzero(in_calm.take(by_pair))
    if len(chained):
        pair_of = np.searchsorted(pair_at, chained, "right") - 1
        cr = by_pair.take(chained)
        # Index (within ``cr``) of each chain's first run.
        chain_start = pair_at.take(pair_of) - (chained - np.arange(len(chained)))
        before = prev_marked(run_decided.take(cr))
        run_p0[cr] = p0 = np.where(
            before >= chain_start, run_ends_in.take(cr).take(before),
            held.take(pair_of),
        )
        # Each chain's last run leaves its line present or gone; lines new
        # to a group take the ways that were free at the start, in order.
        last = np.flatnonzero(ends(pair_of))
        cl = cr.take(last)
        lp = pair_of.take(last)
        fin = np.where(run_decided.take(cl), run_ends_in.take(cl), p0.take(last))
        g_end = pair_g.take(lp)
        had = held.take(lp)
        free_first = np.argsort(ways_line.take(g_end, axis=0) != EMPTY,
                                axis=1, kind="stable")
        way = np.where(had, eq.take(lp, axis=0).argmax(1), 0)
        new = fin & ~had
        ng = g_end[new]
        new_rank = np.arange(len(ng)) - np.maximum.accumulate(
            np.where(starts(ng), np.arange(len(ng)), 0))
        way[new] = free_first[new, new_rank]
        touched = had | new
        ways_line[g_end[touched], way[touched]] = np.where(
            fin[touched], run_line.take(cl[touched]), EMPTY)
        ways_key[g_end[fin], way[fin]] = run_key.take(cl[fin])
    busy = np.zeros(0, np.int64)
    if not calm.all():
        # Up to its first revisit a busy group only meets absent lines: it
        # is a FIFO, resolved in closed form (:func:`_fifo_prefix`).  The
        # lockstep starts at each group's first revisit.
        fresh = np.zeros(n_runs, bool)
        fresh[first_of.compress(~held)] = True
        rank = np.arange(n_runs) - np.minimum.reduceat(
            np.where(fresh, n_runs, np.arange(n_runs)), group_first).take(run_g)
        prefix = np.flatnonzero((rank < 0) & ~in_calm)
        if len(prefix):
            gs, drop = _fifo_prefix(prefix, run_g, run_line, run_key, run_reads,
                                    run_ends_in, occ0, ways_line, ways_key)
            evicted[gs] = drop
        busy = np.flatnonzero((rank >= 0) & ~in_calm)
    if len(busy):
        # Lockstep over ranks: the runs of one rank are one slice of the
        # rank-major order, at most one per group.
        busy = busy.take(sort_order(rank.take(busy)))
        bounds = np.zeros(int(rank[busy[-1]]) + 2, np.int64)
        np.cumsum(np.bincount(rank.take(busy), minlength=len(bounds) - 1),
                  out=bounds[1:])
        r_g = run_g.take(busy)
        r_line = run_line.take(busy)
        r_key = run_key.take(busy)
        r_fills = run_reads.take(busy)
        r_decided = run_decided.take(busy)
        r_ends_in = run_ends_in.take(busy)
        r_p0 = np.zeros(len(busy), bool)
        r_evict = np.zeros(len(busy), bool)
        flat_line = ways_line.ravel()
        flat_key = ways_key.ravel()
        tail = None
        for r in range(len(bounds) - 1):
            lo, hi = bounds[r], bounds[r + 1]
            if hi - lo < _TAIL_GROUPS:
                tail = busy[lo:hi]
                break
            gb = r_g[lo:hi]
            xb = r_line[lo:hi]
            wl = ways_line.take(gb, axis=0)
            match = wl == xb[:, None]
            p0 = row_any(match)
            free = wl == EMPTY
            full = ~row_any(free)
            # The run's way: the line's own, else a free one, else the LRU one.
            way = np.where(p0, match.argmax(1),
                           np.where(full, ways_key.take(gb, axis=0).argmin(1),
                                    free.argmax(1)))
            fin = np.where(r_decided[lo:hi], r_ends_in[lo:hi], p0)
            evict = ~p0 & r_fills[lo:hi] & full
            at = gb * ways + way
            flat_line[at] = np.where(fin, xb, np.where(p0 | evict, EMPTY,
                                                       flat_line.take(at)))
            flat_key[at] = np.where(fin, r_key[lo:hi], flat_key.take(at))
            r_p0[lo:hi] = p0
            r_evict[lo:hi] = evict
        run_p0[busy] = r_p0
        run_evict[busy] = r_evict
        if tail is not None:
            group_end = np.append(group_first[1:], n_runs).take(run_g)
            _finish_runs(tail, group_end, run_g, run_line, run_key, run_reads,
                         run_decided, run_ends_in, ways_line, ways_key,
                         run_p0, run_evict)
        evicted += np.bincount(run_g.compress(run_evict), minlength=len(groups))

    # Presence before each event: the last fill/removal earlier in its run
    # decides; before the first one, the run's start presence holds.
    prev = prev_marked(decides)
    present = np.where(
        prev >= run_first.take(run_id), is_read.take(prev), run_p0.take(run_id)
    )
    hit = np.zeros(n, bool)
    own_at = np.flatnonzero(own)
    hit[p.take(own_at)] = present.take(own_at)
    dropped = np.flatnonzero(~own & present)
    dropper = cores.take(p.take(dropped))
    dropped_core = core_of.take(dropped)
    return L1Outcome(
        hit=hit,
        evictions=np.bincount(groups // num_sets, evicted,
                              minlength=num_cores).astype(np.int64),
        invalidations=np.bincount(dropped_core, minlength=num_cores),
        sibling=int(np.count_nonzero(
            l2_of_core.take(dropped_core) == l2_of_core.take(dropper)
        )),
        groups=groups,
        ways_line=ways_line,
        ways_key=ways_key,
    )


def _fifo_prefix(
    runs: np.ndarray,
    run_g: np.ndarray,
    run_line: np.ndarray,
    run_key: np.ndarray,
    run_reads: np.ndarray,
    run_ends_in: np.ndarray,
    occ0: np.ndarray,
    ways_line: np.ndarray,
    ways_key: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve ``runs``, each busy group's runs before its first revisit.

    Each such run finds its line absent, and no run touches a line already
    present, so a set's LRU order is the order its lines came in: it is a
    FIFO.  A run that ends with its line in pushes the line, popping the
    oldest one if the set was full; a run that fills and then loses its
    line pops the oldest if full; any other run changes nothing.  So the
    occupancy after each run is ``min(occ + a, b)`` of the one before, with
    ``a`` 1 for a push and ``b`` the ways less 1 for a fill that was lost.
    Those maps compose to ``min(occ0 + A, min over j of (b_j + A - A_j))``
    with A the pushes so far, and the set ends holding the last ``occ``
    entries of its start lines, oldest first, followed by its pushes.

    Writes each group's end contents into ``ways_line``/``ways_key`` and
    returns the groups and how many lines each evicted (every pop is an
    eviction).
    """
    ways = ways_line.shape[1]
    g = run_g.take(runs)
    push = run_ends_in.take(runs)
    first = starts(g)
    at0 = np.flatnonzero(first)
    gs = g.take(at0)
    pushed = np.cumsum(push)                    # P, across the groups
    before = pushed.take(at0) - push.take(at0)  # P before each group
    total = np.append(pushed.take(at0[1:] - 1), pushed[-1])
    # With A = P - before, min over j of (b_j + A - A_j) at a group's end
    # is its last P plus min over j of (b_j - P_j).
    cap = total + np.minimum.reduceat(
        ways - (run_reads.take(runs) & ~push) - pushed, at0)
    start_occ = occ0.take(gs)
    queued = start_occ + total - before  # start lines plus pushes
    drop = queued - np.minimum(queued, cap)

    # Entry j of a group's queue (start lines oldest first, then its
    # pushes) stays iff j >= drop, in way j - drop.
    wl = ways_line.take(gs, axis=0)
    wk = ways_key.take(gs, axis=0)
    ways_line[gs] = EMPTY
    flat_line = ways_line.ravel()
    flat_key = ways_key.ravel()
    # Start keys are negative, so free ways sort last.
    oldest = np.argsort(np.where(wl != EMPTY, wk, 0), axis=1, kind="stable")
    j = np.arange(ways)
    gi, ji = np.nonzero((j >= drop[:, None]) & (j < start_occ[:, None]))
    at = gs.take(gi) * ways + ji - drop.take(gi)
    src = gi * ways + oldest.ravel().take(gi * ways + ji)
    flat_line[at] = wl.ravel().take(src)
    flat_key[at] = wk.ravel().take(src)
    f = np.flatnonzero(push)
    gf = (np.cumsum(first) - 1).take(f)
    way = start_occ.take(gf) + pushed.take(f) - 1 - before.take(gf) - drop.take(gf)
    kept = np.flatnonzero(way >= 0)
    f = runs.take(f.take(kept))
    at = gs.take(gf.take(kept)) * ways + way.take(kept)
    flat_line[at] = run_line.take(f)
    flat_key[at] = run_key.take(f)
    return gs, drop


def _finish_runs(
    heads: np.ndarray,
    group_end: np.ndarray,
    run_g: np.ndarray,
    run_line: np.ndarray,
    run_key: np.ndarray,
    run_reads: np.ndarray,
    run_decided: np.ndarray,
    run_ends_in: np.ndarray,
    ways_line: np.ndarray,
    ways_key: np.ndarray,
    run_p0: np.ndarray,
    run_evict: np.ndarray,
) -> None:
    """The lockstep step, one group at a time, from runs ``heads`` to each
    group's end (the deep tail of a few groups)."""
    for head in heads.tolist():
        gi = int(run_g[head])
        end = int(group_end[head])
        wl: List[int] = ways_line[gi].tolist()
        wk: List[int] = ways_key[gi].tolist()
        p0s = []
        evicts = []
        for line, key, fills, decided, ends_in in zip(
            run_line[head:end].tolist(), run_key[head:end].tolist(),
            run_reads[head:end].tolist(), run_decided[head:end].tolist(),
            run_ends_in[head:end].tolist(),
        ):
            p0 = line in wl
            evict = False
            if p0:
                way = wl.index(line)
            elif EMPTY in wl:
                way = wl.index(EMPTY)
            else:
                way = wk.index(min(wk))
                evict = fills
            if ends_in if decided else p0:
                wl[way] = line
                wk[way] = key
            elif p0 or evict:
                wl[way] = EMPTY
            p0s.append(p0)
            evicts.append(evict)
        run_p0[head:end] = p0s
        run_evict[head:end] = evicts
        ways_line[gi] = wl
        ways_key[gi] = wk


class L2Wiring:
    """Per-L2 lookup tables over holder bitmasks (``2 ** num_l2`` masks).

    Attributes:
        bit: ``1 << l2`` per L2.
        pop: set bits per mask.
        peers: per L2, the mask of the L2s on its chip (itself included).
        supplier: ``[l2 * 2**num_l2 + mask]``: the holder that serves a
            snoop from ``l2``: the last holder on its chip, else the
            lowest-numbered one (-1 for no holder).
        chip: chip of each L2.
    """

    def __init__(self, chip_of_l2: np.ndarray):
        num_l2 = len(chip_of_l2)
        self.chip = np.asarray(chip_of_l2, np.int64)
        self.bit = np.int64(1) << np.arange(num_l2, dtype=np.int64)
        bits = (np.arange(1 << num_l2)[:, None] >> np.arange(num_l2)) & 1
        self.pop = bits.sum(1)
        same_chip = self.chip[:, None] == self.chip[None, :]
        self.peers = (same_chip * self.bit).sum(1)
        lowest = np.where(bits.any(1), bits.argmax(1), -1)
        tables = []
        for c in range(num_l2):
            near = bits * same_chip[c]
            last_near = num_l2 - 1 - near[:, ::-1].argmax(1)
            tables.append(np.where(near.any(1), last_near, lowest))
        self.supplier = np.concatenate(tables)


@dataclass
class MesiOutcome:
    """Per L2 event (in the order given) and per line, what MESI resolved.

    Attributes:
        hit: the requesting L2 held the line.
        holders: holder bitmask before the event.
        state: state before the event (0 none, else SHARED/EXCLUSIVE/MODIFIED).
        last_in_l2: no later event on the line comes from the same L2.
        touched: dense ids of the lines with events.
        final_holders / final_state: per touched line, after the segment.
    """

    hit: np.ndarray
    holders: np.ndarray
    state: np.ndarray
    last_in_l2: np.ndarray
    touched: np.ndarray
    final_holders: np.ndarray
    final_state: np.ndarray


def resolve_mesi(
    l2: np.ndarray,
    u: np.ndarray,
    writes: np.ndarray,
    start_holders: np.ndarray,
    start_state: np.ndarray,
    wiring: L2Wiring,
) -> MesiOutcome:
    """Each line's holder mask and E/M flag before every one of its events.

    ``l2``/``u``/``writes`` are the L2 events in global order: requesting
    L2, dense line id, store flag.  ``start_holders``/``start_state`` give
    each dense line's holder mask and state at the segment start (state 0
    where no L2 holds it).  A line with a single event meets its start
    state; only lines with more go through the prefix passes.
    """
    num_l2 = len(wiring.bit)
    num_lines = len(start_holders)
    holders = start_holders.take(u)
    state = start_state.take(u)
    last = np.ones(len(u), bool)       # no later event on the line
    last_here = np.ones(len(u), bool)  # no later event on it from this L2
    multi = np.flatnonzero(np.bincount(u, minlength=num_lines).take(u) > 1)
    if len(multi):
        o = multi.take(sort_order(u.take(multi)))
        c = l2.take(o)
        lu = u.take(o)
        w = writes.take(o)
        e_total = len(o)
        line_start = np.maximum.accumulate(
            np.where(starts(lu), np.arange(e_total), 0))
        last_write = prev_marked(w)
        reset = last_write >= line_start
        since = np.where(reset, last_write, line_start)
        # L2s that read the line since ``since``: column e of ``seen``
        # holds, per L2, its last read before event e.
        rd = np.flatnonzero(~w)
        seen = np.full((num_l2, e_total + 1), -1, np.int64)
        seen[c.take(rd), rd + 1] = rd
        np.maximum.accumulate(seen, axis=1, out=seen)
        readers = wiring.bit @ (seen[:, :-1] >= since)

        writer_bit = wiring.bit.take(c.take(np.where(reset, last_write, 0)))
        h0 = holders.take(o)
        h = np.where(reset, writer_bit, h0) | readers
        st = np.where(
            reset,
            np.where(readers & ~writer_bit, SHARED, MODIFIED),
            np.where(
                h0 == 0,
                np.where(wiring.pop.take(readers) == 1, EXCLUSIVE, SHARED),
                np.where(readers & ~h0, SHARED, state.take(o)),
            ),
        )
        st[h == 0] = 0
        holders[o] = h
        state[o] = st
        last[o.compress(~ends(lu))] = False
        # Last event of each (L2, line): the ends of the (L2, line)-major order.
        pair = c * num_lines + lu
        by_pair = sort_order(pair)
        last_here[o.take(by_pair.compress(~ends(pair.take(by_pair))))] = False
    hit = (holders & wiring.bit.take(l2)) != 0

    # A write leaves the writer alone in M; a read adds its L2, keeping
    # the state on a hit, else S when others hold the line, E when none.
    at = np.flatnonzero(last)
    h = holders.take(at)
    mine = wiring.bit.take(l2.take(at))
    w = writes.take(at)
    return MesiOutcome(
        hit=hit,
        holders=holders,
        state=state,
        last_in_l2=last_here,
        touched=u.take(at),
        final_holders=np.where(w, mine, h | mine),
        final_state=np.where(
            w, MODIFIED,
            np.where(hit.take(at), state.take(at),
                     np.where(h != 0, SHARED, EXCLUSIVE)),
        ),
    )


class LineDirectory:
    """Per-line state columns found by line number, for the L2s.

    Rows are handed out 64 lines at a time (one block per 64-line-aligned
    range touched), so a lookup is a ``searchsorted`` over the sorted
    block numbers; row order never changes once given.  A line's holders
    all share one MESI state (S when more than one holds it).

    Attributes:
        holders: per row, the bitmask of the L2s holding the line.
        state: per row, the MESI state of its holders (0 where none).
        stamp: (columns, capacity) LRU stamp per L2 and row, as an offset
            the owner picks.
        used: rows handed out so far.
    """

    BLOCK = 64

    def __init__(self, columns: int):
        self._sorted = np.zeros(0, np.int64)   # block numbers, ascending
        self._base = np.zeros(0, np.int64)     # first row of each of those
        self._by_row = np.zeros(0, np.int64)   # block number per row block
        self.holders = np.zeros(0, np.int64)
        self.state = np.zeros(0, np.int8)
        self.stamp = np.zeros((columns, 0), np.int32)
        self.used = 0

    def rows(self, lines: np.ndarray) -> np.ndarray:
        """Row of each of ``lines`` (ascending), allocating as needed."""
        blocks = lines // self.BLOCK
        first = starts(blocks)
        distinct = blocks.compress(first)
        at = np.minimum(np.searchsorted(self._sorted, distinct), len(self._sorted) - 1)
        found = (self._sorted.take(at) == distinct if len(self._sorted)
                 else np.zeros(len(distinct), bool))
        if not found.all():
            new = distinct.compress(~found)
            base = self.used + self.BLOCK * np.arange(len(new))
            self.used += self.BLOCK * len(new)
            if self.used > len(self.state):
                # Power-of-two capacities: each copy at least doubles, so
                # the rows copied over a run stay below the final size.
                cap = 1 << (self.used - 1).bit_length()
                for name in ("holders", "state", "stamp"):
                    old = getattr(self, name)
                    grown = np.zeros(old.shape[:-1] + (cap,), old.dtype)
                    grown[..., :old.shape[-1]] = old
                    setattr(self, name, grown)
            self._by_row = np.concatenate([self._by_row, new])
            merged = np.concatenate([self._sorted, new])
            order = np.argsort(merged, kind="stable")
            self._sorted = merged.take(order)
            self._base = np.concatenate([self._base, base]).take(order)
            at = np.searchsorted(self._sorted, distinct)
        return self._base.take(at).take(np.cumsum(first) - 1) + lines % self.BLOCK

    def lines(self, rows: np.ndarray) -> np.ndarray:
        """Line number of each of ``rows``."""
        return self._by_row[rows // self.BLOCK] * self.BLOCK + rows % self.BLOCK
