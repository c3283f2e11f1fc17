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
the end state and the counters back.
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
    """
    num_cores = len(l2_of_core)
    n = len(lines)
    ways = start_line.shape[1]

    # Which cores can hold each line during the segment: those holding it
    # at the start, and those that read it.
    may_hold = np.zeros((len(ulines), num_cores), bool)
    reads = ~writes
    may_hold[u[reads], cores[reads]] = True
    resident = np.flatnonzero(start_line.ravel() != EMPTY)
    s_line = start_line.ravel()[resident]
    su = np.minimum(np.searchsorted(ulines, s_line), len(ulines) - 1)
    known = ulines[su] == s_line
    may_hold[su[known], resident[known] // ways // num_sets] = True
    if not may_hold.any():
        # No line of the segment is, or gets, in any L1: every access
        # misses and no L1 changes.
        none = np.zeros(num_cores, np.int64)
        return L1Outcome(hit=np.zeros(n, bool), evictions=none,
                         invalidations=none, sibling=0,
                         groups=np.zeros(0, np.int64),
                         ways_line=start_line[:0], ways_key=start_key[:0])

    # Removal events: every other core's write to a line it may hold.
    w_pos = np.flatnonzero(writes)
    holders = may_hold[u[w_pos]]
    holders[np.arange(len(w_pos)), cores[w_pos]] = False
    w_at, x_core = np.nonzero(holders)
    x_pos = w_pos[w_at]

    # Events sorted by (group, position).  A key decodes to its group and
    # position; the event is the group's own access iff the core at that
    # position is the group's core, else a removal.
    sets = lines % num_sets
    keys = np.concatenate([
        (cores * num_sets + sets) * n + np.arange(n),
        (x_core * num_sets + sets[x_pos]) * n + x_pos,
    ])
    keys.sort()
    g = keys // n
    p = keys - g * n
    core_of = g // num_sets
    own = cores[p] == core_of
    x = lines[p]
    is_read = own & reads[p]
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
    run_ends_in = run_decided & is_read[last_decider]
    run_line = x[run_first]
    run_key = p[run_last]
    run_group = g[run_first]
    group_start = starts(run_group)
    groups = run_group[group_start]
    run_g = np.cumsum(group_start) - 1

    ways_line = start_line[groups]
    ways_key = start_key[groups]
    run_p0 = np.zeros(n_runs, bool)
    run_evict = np.zeros(n_runs, bool)

    # Calm groups can hold every line they see (the start content plus the
    # lines read fit in the ways), so they never evict and each line's
    # presence follows its own chain of runs, at any depth.  The others
    # advance in lockstep.
    num_u = len(ulines)
    run_u = u[p[run_first]]
    read_pairs = np.sort(run_g[run_reads] * num_u + run_u[run_reads])
    read_pairs = read_pairs[starts(read_pairs)]
    pair_g = read_pairs // num_u
    fresh = ~row_any(ways_line[pair_g] == ulines[read_pairs - pair_g * num_u][:, None])
    calm = (ways_line != EMPTY).sum(1) + np.bincount(
        pair_g[fresh], minlength=len(groups)) <= ways
    in_calm = calm[run_g]

    chain_key = run_g * num_u + run_u
    cr = np.flatnonzero(in_calm)
    cr = cr[sort_order(chain_key[cr])]  # (group, line)-major, runs in order
    if len(cr):
        ck = chain_key[cr]
        gl = run_g[cr]
        xl = run_line[cr]
        eq = ways_line[gl] == xl[:, None]
        held = row_any(eq)
        before = prev_marked(run_decided[cr])
        chain_start = np.maximum.accumulate(np.where(starts(ck), np.arange(len(cr)), 0))
        run_p0[cr] = p0 = np.where(
            before >= chain_start, run_ends_in[cr][before], held
        )
        # Each chain's last run leaves its line present or gone; lines new
        # to a group take the ways that were free at the start, in order.
        last = ends(ck)
        cl = cr[last]
        fin = np.where(run_decided[cl], run_ends_in[cl], p0[last])
        g_end = gl[last]
        x_end = xl[last]
        had = held[last]
        free_first = np.argsort(ways_line[g_end] != EMPTY, axis=1, kind="stable")
        way = np.where(had, eq[last].argmax(1), 0)
        new = fin & ~had
        ng = g_end[new]
        new_rank = np.arange(len(ng)) - np.maximum.accumulate(
            np.where(starts(ng), np.arange(len(ng)), 0))
        way[new] = free_first[new, new_rank]
        touched = had | new
        ways_line[g_end[touched], way[touched]] = np.where(fin[touched], x_end[touched], EMPTY)
        ways_key[g_end[fin], way[fin]] = run_key[cl[fin]]

    # Lockstep over ranks: the runs of one rank are one slice of the
    # rank-major order, at most one per group.
    first_run = np.maximum.accumulate(np.where(group_start, np.arange(n_runs), 0))
    rank = np.arange(n_runs) - first_run
    busy = np.flatnonzero(~in_calm)
    busy = busy[sort_order(rank[busy])]
    bounds = np.zeros(int(rank.max()) + 2, np.int64)
    np.cumsum(np.bincount(rank[busy], minlength=len(bounds) - 1), out=bounds[1:])
    r_g = run_g[busy]
    r_line = run_line[busy]
    r_key = run_key[busy]
    r_fills = run_reads[busy]
    r_decided = run_decided[busy]
    r_ends_in = run_ends_in[busy]
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
        wl = ways_line[gb]
        match = wl == xb[:, None]
        p0 = row_any(match)
        free = wl == EMPTY
        full = ~row_any(free)
        # The run's way: the line's own, else a free one, else the LRU one.
        way = np.where(p0, match.argmax(1),
                       np.where(full, ways_key[gb].argmin(1), free.argmax(1)))
        fin = np.where(r_decided[lo:hi], r_ends_in[lo:hi], p0)
        evict = ~p0 & r_fills[lo:hi] & full
        at = gb * ways + way
        flat_line[at] = np.where(fin, xb, np.where(p0 | evict, EMPTY, flat_line[at]))
        flat_key[at] = np.where(fin, r_key[lo:hi], flat_key[at])
        r_p0[lo:hi] = p0
        r_evict[lo:hi] = evict
    run_p0[busy] = r_p0
    run_evict[busy] = r_evict
    if tail is not None:
        group_end = np.append(np.flatnonzero(group_start)[1:], n_runs)[run_g]
        _finish_runs(tail, group_end, run_g, run_line, run_key, run_reads,
                     run_decided, run_ends_in, ways_line, ways_key,
                     run_p0, run_evict)

    # Presence before each event: the last fill/removal earlier in its run
    # decides; before the first one, the run's start presence holds.
    prev = prev_marked(decides)
    present = np.where(
        prev >= run_first[run_id], is_read[prev], run_p0[run_id]
    )
    hit = np.zeros(n, bool)
    hit[p[own]] = present[own]
    dropped = ~own & present
    dropper = cores[p[dropped]]
    return L1Outcome(
        hit=hit,
        evictions=np.bincount(
            groups[run_g[run_evict]] // num_sets, minlength=num_cores
        ),
        invalidations=np.bincount(core_of[dropped], minlength=num_cores),
        sibling=int(np.count_nonzero(
            l2_of_core[core_of[dropped]] == l2_of_core[dropper]
        )),
        groups=groups,
        ways_line=ways_line,
        ways_key=ways_key,
    )


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
        supplier: the L2 a snoop is served by (-1 where no holder).
        last_in_l2: no later event on the line comes from the same L2.
        final_holders / final_state: per dense line id, after the segment.
    """

    hit: np.ndarray
    holders: np.ndarray
    state: np.ndarray
    supplier: np.ndarray
    last_in_l2: np.ndarray
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
    each dense line's holder mask and highest state at the segment start.
    """
    num_l2 = len(wiring.bit)
    o = sort_order(u)
    c = l2[o]
    lu = u[o]
    w = writes[o]
    e_total = len(o)
    idx = np.arange(e_total)
    line_start = np.maximum.accumulate(np.where(starts(lu), idx, 0))
    last_write = prev_marked(w)
    reset = last_write >= line_start
    since = np.where(reset, last_write, line_start)
    # L2s that read the line since ``since``: column e of ``seen`` holds,
    # per L2, its last read before event e.
    rd = np.flatnonzero(~w)
    if len(rd):
        seen = np.full((num_l2, e_total + 1), -1, np.int64)
        seen[c[rd], rd + 1] = rd
        np.maximum.accumulate(seen, axis=1, out=seen)
        readers = wiring.bit @ (seen[:, :-1] >= since)
    else:
        readers = np.zeros(e_total, np.int64)

    writer_bit = wiring.bit[c[np.where(reset, last_write, 0)]]
    h0 = start_holders[lu]
    holders = np.where(reset, writer_bit, h0) | readers
    state = np.where(
        reset,
        np.where(readers & ~writer_bit, SHARED, MODIFIED),
        np.where(
            h0 == 0,
            np.where(wiring.pop[readers] == 1, EXCLUSIVE, SHARED),
            np.where(readers & ~h0, SHARED, start_state[lu]),
        ),
    )
    state[holders == 0] = 0
    mine = wiring.bit[c]
    hit = (holders & mine) != 0
    supplier = wiring.supplier[(c << num_l2) + holders]

    last = ends(lu)
    final_holders = start_holders.copy()
    final_state = start_state.copy()
    at = lu[last]
    final_holders[at] = np.where(
        w[last], mine[last], holders[last] | mine[last]
    )
    final_state[at] = np.where(
        w[last], MODIFIED,
        np.where(hit[last], state[last],
                 np.where(holders[last] != 0, SHARED, EXCLUSIVE)),
    )
    # Last event of each (L2, line): the ends of the (L2, line)-major order.
    pair = c * (int(lu[-1]) + 1 if e_total else 1) + lu
    by_pair = sort_order(pair)
    last_here = np.zeros(e_total, bool)
    last_here[by_pair[ends(pair[by_pair])]] = True

    def unsort(a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        out[o] = a
        return out

    return MesiOutcome(
        hit=unsort(hit),
        holders=unsort(holders),
        state=unsort(state),
        supplier=unsort(supplier),
        last_in_l2=unsort(last_here),
        final_holders=final_holders,
        final_state=final_state,
    )


class LineDirectory:
    """Per-line state columns found by line number, for the L2s.

    Rows are handed out 64 lines at a time (one block per 64-line-aligned
    range touched), so a lookup is a ``searchsorted`` over the sorted
    block numbers; row order never changes once given.

    Attributes:
        state: (columns, capacity) MESI state per L2 and row.
        stamp: (columns, capacity) LRU stamp per L2 and row, as an offset
            the owner picks.
        used: rows handed out so far.
    """

    BLOCK = 64

    def __init__(self, columns: int):
        self._sorted = np.zeros(0, np.int64)   # block numbers, ascending
        self._base = np.zeros(0, np.int64)     # first row of each of those
        self._by_row = np.zeros(0, np.int64)   # block number per row block
        self.state = np.zeros((columns, 0), np.int8)
        self.stamp = np.zeros((columns, 0), np.int32)
        self.used = 0

    def rows(self, lines: np.ndarray) -> np.ndarray:
        """Row of each of ``lines`` (ascending), allocating as needed."""
        blocks = lines // self.BLOCK
        first = starts(blocks)
        distinct = blocks[first]
        at = np.minimum(np.searchsorted(self._sorted, distinct), len(self._sorted) - 1)
        found = (self._sorted[at] == distinct if len(self._sorted)
                 else np.zeros(len(distinct), bool))
        if not found.all():
            new = distinct[~found]
            base = self.used + self.BLOCK * np.arange(len(new))
            self.used += self.BLOCK * len(new)
            if self.used > self.state.shape[1]:
                cap = max(self.used, self.state.shape[1] * 3 // 2)
                for name in ("state", "stamp"):
                    old = getattr(self, name)
                    grown = np.zeros((old.shape[0], cap), old.dtype)
                    grown[:, :old.shape[1]] = old
                    setattr(self, name, grown)
            self._by_row = np.concatenate([self._by_row, new])
            merged = np.concatenate([self._sorted, new])
            order = np.argsort(merged, kind="stable")
            self._sorted = merged[order]
            self._base = np.concatenate([self._base, base])[order]
            at = np.searchsorted(self._sorted, distinct)
        return self._base[at][np.cumsum(first) - 1] + lines % self.BLOCK

    def lines(self, rows: np.ndarray) -> np.ndarray:
        """Line number of each of ``rows``."""
        return self._by_row[rows // self.BLOCK] * self.BLOCK + rows % self.BLOCK
