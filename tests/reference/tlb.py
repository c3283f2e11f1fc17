"""Stamp-based reference for the set-associative LRU TLB.

Each set is a row of ways with parallel tag, frame and stamp lists; a
per-TLB clock ticks on every lookup and fill, a touched way takes the
clock as its stamp, and a fill into a full set evicts the way with the
smallest stamp.  :class:`repro.tlb.tlb.TLB` keeps each set as a recency
ordered dict instead and must make every decision this model makes
(``tests/tlb/test_tlb_differential.py``).  Not used by the program.
"""

from __future__ import annotations

from typing import List, Optional

from repro.tlb.tlb import TLBConfig, TLBStats

#: Sentinel tag for an empty way.
_EMPTY = -1


class ReferenceTLB:
    """One core's TLB as per-way tag, frame and stamp lists."""

    def __init__(self, config: Optional[TLBConfig] = None, core_id: int = 0):
        self.config = config or TLBConfig()
        self.core_id = core_id
        self.stats = TLBStats()
        n = self.config.num_sets
        w = self.config.ways
        self._tags: List[List[int]] = [[_EMPTY] * w for _ in range(n)]
        self._pfns: List[List[int]] = [[_EMPTY] * w for _ in range(n)]
        self._stamp: List[List[int]] = [[0] * w for _ in range(n)]
        self._clock = 0
        self._set_mask = n - 1

    def lookup(self, vpn: int) -> bool:
        """LRU-updating lookup.  Returns hit/miss and counts it."""
        self._clock += 1
        tags = self._tags[vpn & self._set_mask]
        for way, tag in enumerate(tags):
            if tag == vpn:
                self._stamp[vpn & self._set_mask][way] = self._clock
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        return False

    def lookup_batch(self, vpn: int, count: int) -> None:
        """``count`` hits of a resident ``vpn``; KeyError if it is not."""
        idx = vpn & self._set_mask
        tags = self._tags[idx]
        try:
            way = tags.index(vpn)
        except ValueError:
            raise KeyError(vpn) from None
        self._clock += count
        self._stamp[idx][way] = self._clock
        self.stats.hits += count

    def fill(self, vpn: int, pfn: int = 0) -> Optional[int]:
        """Insert, evicting the smallest stamp of a full set; returns the
        evicted page, or None (free way, or a resident page refreshed)."""
        self._clock += 1
        idx = vpn & self._set_mask
        tags = self._tags[idx]
        stamps = self._stamp[idx]
        free = -1
        for way, tag in enumerate(tags):
            if tag == vpn:
                self._pfns[idx][way] = pfn
                stamps[way] = self._clock
                return None
            if tag == _EMPTY and free < 0:
                free = way
        self.stats.fills += 1
        if free >= 0:
            way = free
            evicted = None
        else:
            way = 0
            best = stamps[0]
            for w in range(1, len(stamps)):
                if stamps[w] < best:
                    best = stamps[w]
                    way = w
            evicted = tags[way]
            self.stats.evictions += 1
        tags[way] = vpn
        self._pfns[idx][way] = pfn
        stamps[way] = self._clock
        return evicted

    def invalidate(self, vpn: int) -> bool:
        """Drop a translation.  Returns whether it was present."""
        idx = vpn & self._set_mask
        tags = self._tags[idx]
        for way, tag in enumerate(tags):
            if tag == vpn:
                tags[way] = _EMPTY
                self._pfns[idx][way] = _EMPTY
                self.stats.invalidations += 1
                return True
        return False

    def flush(self) -> None:
        """Drop all translations."""
        w = self.config.ways
        for idx in range(len(self._tags)):
            self._tags[idx] = [_EMPTY] * w
            self._pfns[idx] = [_EMPTY] * w
            self._stamp[idx] = [0] * w

    def probe(self, vpn: int) -> bool:
        """Membership test that touches neither LRU order nor stats."""
        return vpn >= 0 and vpn in self._tags[vpn & self._set_mask]

    def recency(self, index: int) -> List[int]:
        """Set ``index``'s resident pages, least recently used first."""
        ways = [w for w, t in enumerate(self._tags[index]) if t != _EMPTY]
        ways.sort(key=self._stamp[index].__getitem__)
        return [self._tags[index][w] for w in ways]
