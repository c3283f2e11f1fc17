"""Set-associative TLB with LRU replacement.

This is the data structure the whole paper revolves around: a small,
per-core translation cache whose residency set approximates "pages this
core touched recently".  The default geometry — 64 entries, 4-way — is the
paper's (the UltraSPARC D-TLB and the Nehalem L1 D-TLB size).

A set is fully described by its recency order (the LRU stack), so each
set is a dict from page to frame, least recently used first: a hit moves
its page to the end, a fill into a full set evicts the first page.

Besides the usual lookup/fill interface the class exposes the two probe
operations the detection mechanisms need:

* ``probe(vpn)`` — non-destructive membership test (SM searches the *other*
  cores' TLBs for the page that just missed).  In hardware it compares the
  ways of one set, Θ(ways): the paper's Θ(P) argument, and the cost the
  detectors charge as cycles.  In Python it is one dict lookup.
* ``set_keys()`` / ``set_entries(index)`` / ``resident_pages()`` — bulk
  content access used by the HM mechanism's periodic all-pairs scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, KeysView, List, Optional

from repro.util.validation import check_power_of_two


@dataclass(frozen=True)
class TLBConfig:
    """TLB geometry.

    Attributes:
        entries: total entry count (power of two).
        ways: associativity; ``ways == entries`` gives a fully associative
            TLB (the paper analyzes both).
        page_size: bytes per page (used by callers to split addresses; the
            TLB itself only sees virtual page numbers).
    """

    entries: int = 64
    ways: int = 4
    page_size: int = 4096

    def __post_init__(self) -> None:
        check_power_of_two("entries", self.entries)
        check_power_of_two("ways", self.ways)
        check_power_of_two("page_size", self.page_size)
        if self.ways > self.entries:
            raise ValueError(
                f"ways ({self.ways}) cannot exceed entries ({self.entries})"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets (1 when fully associative)."""
        return self.entries // self.ways

    @property
    def fully_associative(self) -> bool:
        return self.num_sets == 1


@dataclass
class TLBStats:
    """Hit/miss/eviction counters for one TLB."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction in [0, 1]; 0.0 before any access."""
        total = self.accesses
        return self.misses / total if total else 0.0


class TLB:
    """One core's translation lookaside buffer.

    Each set maps virtual page numbers to physical frames, least recently
    used first.  The frame is kept so the model round-trips real
    translations, although the detection mechanisms only ever compare the
    virtual tags.
    """

    def __init__(self, config: Optional[TLBConfig] = None, core_id: int = 0):
        self.config = config or TLBConfig()
        self.core_id = core_id
        self.stats = TLBStats()
        self._sets: List[Dict[int, int]] = [{} for _ in range(self.config.num_sets)]
        self._set_mask = self.config.num_sets - 1
        self._ways = self.config.ways

    # -- core interface ----------------------------------------------------

    def set_index(self, vpn: int) -> int:
        """Set an entry for ``vpn`` would live in."""
        return vpn & self._set_mask

    def lookup(self, vpn: int) -> bool:
        """LRU-updating lookup.  Returns hit/miss and counts it."""
        entries = self._sets[vpn & self._set_mask]
        pfn = entries.pop(vpn, None)
        if pfn is None:
            self.stats.misses += 1
            return False
        entries[vpn] = pfn
        self.stats.hits += 1
        return True

    def lookup_batch(self, vpn: int, count: int) -> None:
        """Account ``count`` guaranteed-hit lookups of a resident ``vpn``.

        Batched-engine entry point: within one scheduling quantum, every
        repeat access to a page the quantum translated is a certain hit,
        and a hit on the most recently used page leaves the recency order
        as it is, so the repeats of a whole quantum collapse to one
        counter update.  The final TLB state is bit-identical to ``count``
        calls of :meth:`lookup`.

        Raises KeyError if ``vpn`` is not resident — the caller broke the
        guaranteed-hit contract.
        """
        entries = self._sets[vpn & self._set_mask]
        try:
            entries[vpn] = entries.pop(vpn)
        except KeyError:
            raise KeyError(
                f"lookup_batch: vpn {vpn:#x} not resident in core "
                f"{self.core_id}'s TLB"
            ) from None
        self.stats.hits += count

    def fill(self, vpn: int, pfn: int = 0) -> Optional[int]:
        """Insert a translation, evicting LRU if the set is full.

        Returns the evicted virtual page number, or None if a free way was
        used.  Filling a vpn that is already resident refreshes it in place.
        """
        entries = self._sets[vpn & self._set_mask]
        if vpn in entries:
            del entries[vpn]
            entries[vpn] = pfn
            return None
        self.stats.fills += 1
        evicted = None
        if len(entries) >= self._ways:
            for evicted in entries:  # the first key: least recently used
                break
            del entries[evicted]
            self.stats.evictions += 1
        entries[vpn] = pfn
        return evicted

    def invalidate(self, vpn: int) -> bool:
        """Drop a translation (TLB shootdown).  Returns whether present."""
        if self._sets[vpn & self._set_mask].pop(vpn, None) is None:
            return False
        self.stats.invalidations += 1
        return True

    def flush(self) -> None:
        """Drop all translations (context switch / full shootdown)."""
        for entries in self._sets:
            entries.clear()

    # -- detection-mechanism interface --------------------------------------

    def probe(self, vpn: int) -> bool:
        """Non-destructive membership test (does not touch LRU or stats).

        This is the SM mechanism's primitive: on a miss in core A, probe the
        TLBs of all other cores for the missing page.
        """
        return vpn in self._sets[vpn & self._set_mask]

    def set_entries(self, index: int) -> List[int]:
        """Resident virtual page numbers of set ``index``, LRU first."""
        return list(self._sets[index])

    def set_keys(self) -> List[KeysView[int]]:
        """Every set's resident pages as a live view, LRU first.

        The HM scan intersects these set by set; a view follows its set
        through later lookups, fills and flushes.
        """
        return [entries.keys() for entries in self._sets]

    def resident_pages(self) -> List[int]:
        """All resident virtual page numbers (the TLB 'snapshot')."""
        return [vpn for entries in self._sets for vpn in entries]

    def occupancy(self) -> int:
        """Number of live entries."""
        return sum(map(len, self._sets))

    def __iter__(self) -> Iterator[int]:
        return iter(self.resident_pages())

    def __contains__(self, vpn: int) -> bool:
        return self.probe(vpn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        return (
            f"TLB(core={self.core_id}, {c.entries}e/{c.ways}w, "
            f"occupancy={self.occupancy()})"
        )
