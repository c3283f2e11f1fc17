"""Segment differential: ``access_batch`` against ``access()``, segment by segment.

Two hierarchies start empty and see the same consecutive random segments:
one resolves each segment with :meth:`MemoryHierarchy.access_batch`, the
other calls the scalar :meth:`MemoryHierarchy.access` per access.  Each
segment's latencies and every counter must match, and so must every
L1/L2 set at the end (lines, states, stamps and LRU order).

The machine is tiny so that segments hit the segment engine's closed
forms: two-way L1s of two sets see far more lines than they hold (first
touches fill full sets, in FIFO order), lines stay resident across
segments, cores on one L2, on two L2s of one chip and on two chips read
and write the same lines (reads then removals, snoops, upgrades), and a
line may have one L2 event in a segment or many.  The L2s have a set per
line of the pool, so no segment can evict and each one takes the array
path.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import MemoryHierarchy

#: Lines of the pool, all in distinct L2 sets; even and odd lines split
#: over the two L1 sets.
POOL = 24
LINE0 = 1 << 10


def make_hierarchy() -> MemoryHierarchy:
    # Cores 0 and 1 share L2 0; L2 1 sits on the same chip, L2 2 on the
    # other one.
    return MemoryHierarchy(
        num_cores=4,
        core_to_l2=[0, 0, 1, 2],
        chip_of_l2=[0, 0, 1],
        l1_config=CacheConfig(size=64 * 2 * 2, ways=2, line_size=64,
                              latency=2, name="L1"),
        l2_config=CacheConfig(size=64 * 8 * 32, ways=8, line_size=64,
                              latency=8, write_back=True, name="L2"),
    )


def counters(h: MemoryHierarchy):
    """Every counter, read without moving the state out of the arrays."""
    ic = h.interconnect.stats
    return {
        "l1": [dataclasses.asdict(c.stats) for c in h._l1s],
        "l2": [dataclasses.asdict(c.stats) for c in h._l2s],
        "clocks": [c._clock for c in h._l1s + h._l2s],
        "bus": dataclasses.asdict(h.stats),
        "sibling": h.l1_sibling_invalidations,
        "interconnect": (ic.intra_transactions, ic.inter_transactions,
                         ic.intra_bytes, ic.inter_bytes, list(ic.by_kind.items())),
    }


def contents(caches):
    """Each set's entries in LRU order: line, state and stamp."""
    return [[list(s.items()) for s in c._sets] for c in caches]


@st.composite
def segments(draw):
    """Consecutive segments over a pool of 1..POOL lines."""
    pool = draw(st.integers(1, POOL))
    access = st.tuples(st.integers(0, 3), st.integers(0, pool - 1),
                       st.booleans())
    return draw(st.lists(st.lists(access, min_size=1, max_size=40),
                         min_size=1, max_size=4))


def run_both(segs, check_each=False):
    batched, scalar = make_hierarchy(), make_hierarchy()
    for seg in segs:
        cores = np.array([a[0] for a in seg], np.int64)
        lines = LINE0 + np.array([a[1] for a in seg], np.int64)
        writes = np.array([a[2] for a in seg], bool)
        got = batched.access_batch(cores, lines, writes, 0, len(seg))
        assert batched._arrays_own, "segment fell back to the scalar path"
        want = [scalar.access(c, x << 6, w) for c, x, w in
                zip(cores.tolist(), lines.tolist(), writes.tolist())]
        assert got.tolist() == want
        assert counters(batched) == counters(scalar)
        if check_each:
            assert contents(batched.l1s) == contents(scalar.l1s)
            assert contents(batched.l2s) == contents(scalar.l2s)
    assert contents(batched.l1s) == contents(scalar.l1s)
    assert contents(batched.l2s) == contents(scalar.l2s)


# Fixed cases for the closed forms.  Lines 0, 2, 4, ... share L1 set 0.
FILL_FULL_SET = [
    [(0, 0, False), (0, 2, False)],                      # set 0 full
    [(0, 4, False), (0, 6, True), (0, 6, False), (0, 8, False),
     (1, 0, False), (0, 0, False)],                      # FIFO pops 0, 2, 4
]
READ_THEN_REMOVED = [
    [(0, 0, False), (0, 2, False)],
    [(0, 4, False), (1, 4, True), (0, 6, False), (0, 4, False),
     (3, 2, True), (2, 6, True), (0, 8, False)],
]
SHARED_LINES = [
    [(0, 1, False), (2, 1, False), (3, 1, False), (1, 3, True)],
    [(3, 1, False), (2, 3, False), (0, 5, False), (1, 1, True),
     (2, 7, True), (3, 7, False), (0, 9, True)],
]


class TestSegmentDifferential:
    @settings(max_examples=150, deadline=None)
    @given(segs=segments())
    @example(segs=FILL_FULL_SET)
    @example(segs=READ_THEN_REMOVED)
    @example(segs=SHARED_LINES)
    def test_batched_segments_match_scalar(self, segs):
        run_both(segs)

    @settings(max_examples=40, deadline=None)
    @given(segs=segments())
    def test_state_round_trips_between_segments(self, segs):
        # Reading l1s/l2s hands the state to the tag stores; the next
        # segment takes it back into arrays.
        run_both(segs, check_each=True)

    def test_batched_run_leaves_set_dicts_unbuilt(self):
        h = make_hierarchy()
        for seg in FILL_FULL_SET + SHARED_LINES:
            cores = np.array([a[0] for a in seg], np.int64)
            lines = LINE0 + np.array([a[1] for a in seg], np.int64)
            h.access_batch(cores, lines, np.array([a[2] for a in seg]), 0, len(seg))
        assert all("_sets" not in vars(c) for c in h._l1s + h._l2s)
        scalar = make_hierarchy()
        for seg in FILL_FULL_SET + SHARED_LINES:
            for c, x, w in seg:
                scalar.access(c, (LINE0 + x) << 6, w)
        assert contents(h.l1s) == contents(scalar.l1s)
        assert contents(h.l2s) == contents(scalar.l2s)
