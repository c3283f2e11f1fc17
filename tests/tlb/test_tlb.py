"""Tests for repro.tlb.tlb — the set-associative TLB."""

import pytest

from repro.tlb.tlb import TLB, TLBConfig


class TestConfig:
    def test_defaults_match_paper(self):
        c = TLBConfig()
        assert c.entries == 64
        assert c.ways == 4
        assert c.num_sets == 16

    def test_fully_associative(self):
        c = TLBConfig(entries=16, ways=16)
        assert c.fully_associative
        assert c.num_sets == 1

    def test_rejects_ways_gt_entries(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=4, ways=8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=48)


class TestLookupFill:
    def test_miss_then_hit(self):
        t = TLB(TLBConfig(entries=8, ways=2))
        assert not t.lookup(100)
        t.fill(100, pfn=7)
        assert t.lookup(100)
        assert t.stats.misses == 1 and t.stats.hits == 1

    def test_lru_within_set(self):
        t = TLB(TLBConfig(entries=8, ways=2))  # 4 sets
        # vpns 0, 4, 8 all map to set 0.
        t.fill(0)
        t.fill(4)
        t.lookup(0)       # refresh 0
        evicted = t.fill(8)
        assert evicted == 4
        assert t.probe(0) and t.probe(8) and not t.probe(4)

    def test_fill_free_way_returns_none(self):
        t = TLB(TLBConfig(entries=8, ways=2))
        assert t.fill(0) is None
        assert t.fill(4) is None

    def test_refill_resident_refreshes(self):
        t = TLB(TLBConfig(entries=8, ways=2))
        t.fill(0)
        t.fill(4)
        t.fill(0)  # refresh in place, no eviction
        assert t.fill(8) == 4
        assert t.stats.evictions == 1

    def test_different_sets_do_not_conflict(self):
        t = TLB(TLBConfig(entries=8, ways=2))
        for vpn in range(4):  # one per set
            t.fill(vpn)
        assert t.occupancy() == 4
        assert t.stats.evictions == 0


class TestProbeSemantics:
    def test_probe_nondestructive(self):
        t = TLB(TLBConfig(entries=8, ways=2))
        t.fill(0)
        t.fill(4)
        hits, misses = t.stats.hits, t.stats.misses
        assert t.probe(0)
        assert not t.probe(8)
        # Stats untouched; LRU untouched (0 remains LRU → evicted next).
        assert (t.stats.hits, t.stats.misses) == (hits, misses)
        assert t.fill(8) == 0

    def test_contains_alias(self):
        t = TLB()
        t.fill(9)
        assert 9 in t and 10 not in t


class TestContentsAccess:
    def test_resident_pages(self):
        t = TLB(TLBConfig(entries=8, ways=2))  # 4 sets
        for vpn in (3, 6, 9):  # sets 3, 2, 1 — no conflicts
            t.fill(vpn)
        assert sorted(t.resident_pages()) == [3, 6, 9]
        assert sorted(t) == [3, 6, 9]

    def test_set_entries(self):
        t = TLB(TLBConfig(entries=8, ways=2))  # 4 sets
        t.fill(1)
        t.fill(5)   # both set 1
        t.fill(2)   # set 2
        assert sorted(t.set_entries(1)) == [1, 5]
        assert t.set_entries(0) == []

    def test_set_index(self):
        t = TLB(TLBConfig(entries=8, ways=2))
        assert t.set_index(5) == 1
        assert t.set_index(4) == 0


class TestInvalidationFlush:
    def test_invalidate(self):
        t = TLB()
        t.fill(5)
        assert t.invalidate(5)
        assert not t.invalidate(5)
        assert t.stats.invalidations == 1
        assert not t.probe(5)

    def test_flush(self):
        t = TLB()
        for vpn in range(10):
            t.fill(vpn)
        t.flush()
        assert t.occupancy() == 0
        assert t.resident_pages() == []

    def test_miss_rate(self):
        t = TLB()
        t.lookup(0)
        t.fill(0)
        t.lookup(0)
        assert t.stats.miss_rate == pytest.approx(0.5)
        assert TLB().stats.miss_rate == 0.0


class TestLifetimeBound:
    def test_entry_lifetime_bounded_by_capacity(self):
        """A page stops being 'recently accessed' once enough distinct
        pages pass through its set — the property that gives the paper its
        dynamic-behaviour / false-communication arguments."""
        t = TLB(TLBConfig(entries=8, ways=2))
        t.fill(0)
        for vpn in (4, 8, 12):  # stream through set 0
            t.fill(vpn)
        assert not t.probe(0)


class TestSentinelCollision:
    """Regression: a per-way representation tagged empty ways ``-1``.

    Its ``probe`` once compared the query VPN against raw way tags, so
    ``probe(-1)`` on a TLB with any empty way reported a phantom hit —
    and a detector scanning residency with out-of-range VPNs counted
    matches between cores that share nothing.
    """

    def test_probe_negative_vpn_on_fresh_tlb_is_miss(self):
        tlb = TLB(TLBConfig())
        assert not tlb.probe(-1)

    def test_probe_negative_vpn_on_partially_filled_set_is_miss(self):
        tlb = TLB(TLBConfig(entries=8, ways=4))
        tlb.fill(0, 100)  # set 0 now has one real entry, three empties
        assert not tlb.probe(-1)
        assert tlb.probe(0)

    def test_set_entries_excludes_empty_ways(self):
        tlb = TLB(TLBConfig(entries=8, ways=4))
        tlb.fill(0, 100)
        assert -1 not in tlb.set_entries(0)
