"""Multi-level page table with allocate-on-touch.

The operating system side of virtual memory: a radix page table shared by
all cores of the simulated machine.  Frames are assigned on first touch
(sequentially — the actual frame numbers never matter to the paper's
mechanism, which compares *virtual* page residency across TLBs, but a real
translation target keeps the model honest and lets tests assert
translation coherence).

The walk cost model charges one memory-ish access per level, which is what
makes TLB misses expensive and the paper's "keep the mechanism off the
critical path" concern meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.util.validation import check_positive, check_power_of_two


@dataclass(frozen=True)
class PageTableConfig:
    """Geometry and cost model of the page table.

    Attributes:
        levels: number of radix levels (x86-64 uses 4; UltraSPARC TSBs are
            effectively 1-2).  Only affects walk cost.
        level_latency: cycles charged per level on a walk (a page-table
            access that misses all caches would be ~200 cycles; real walks
            mostly hit the cache hierarchy, hence the lower default).
        page_size: bytes per page.
    """

    levels: int = 4
    level_latency: int = 25
    page_size: int = 4096

    def __post_init__(self) -> None:
        check_positive("levels", self.levels)
        check_positive("level_latency", self.level_latency)
        check_power_of_two("page_size", self.page_size)

    @property
    def walk_latency(self) -> int:
        """Total cycles for a full table walk."""
        return self.levels * self.level_latency


class PageTable:
    """Shared translation table: virtual page number -> physical frame number."""

    def __init__(self, config: PageTableConfig | None = None):
        self.config = config or PageTableConfig()
        self._entries: Dict[int, int] = {}
        self._next_frame = 0
        self._walk_latency = self.config.walk_latency
        self.walks = 0
        self.faults = 0

    def walk(self, vpn: int) -> tuple[int, int]:
        """Translate ``vpn``; returns ``(pfn, cost_cycles)``.

        First touch allocates a fresh frame (a minor page fault, charged an
        extra level of latency to stand in for the OS fault path).
        """
        self.walks += 1
        pfn = self._entries.get(vpn)
        if pfn is None:
            self.faults += 1
            pfn = self._next_frame
            self._next_frame += 1
            self._entries[vpn] = pfn
            return pfn, self._walk_latency + self.config.level_latency
        return pfn, self._walk_latency

    def translate(self, vpn: int) -> int | None:
        """Current translation for ``vpn`` without touching counters, or None."""
        return self._entries.get(vpn)

    def unmap(self, vpn: int) -> bool:
        """Remove a translation (OS page reclaim).  Returns whether it existed.

        Callers are responsible for shooting down TLB entries — exactly the
        invalidation-on-modify management the paper notes is the *only* TLB
        work a hardware-managed architecture leaves to the OS.
        """
        return self._entries.pop(vpn, None) is not None

    @property
    def mapped_pages(self) -> int:
        """Number of live translations."""
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
