"""Per-core memory-management unit.

The MMU is the core-side front end of virtual memory: every access consults
the TLB; on a miss the translation is fetched from the page table and the
entry filled.  Two management disciplines are modeled, matching Section IV
of the paper:

* ``SOFTWARE`` (SPARC/MIPS style): a miss traps to the OS.  The trap itself
  costs extra cycles, and the OS has the hook point where the SM detection
  mechanism runs — the ``miss_hooks`` fire *inside* the trap handler.
* ``HARDWARE`` (x86 style): the hardware walker fetches the entry; no trap.
  Miss hooks still fire (the simulator uses them for statistics), but the
  HM detection mechanism does not rely on them — it scans TLB contents
  periodically instead.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.tlb.pagetable import PageTable
from repro.tlb.tlb import TLB, TLBConfig, TLBStats

#: Signature of a TLB-miss hook: (core_id, vpn, now_cycles) -> extra
#: cycles to charge.  ``now_cycles`` is the core's simulated clock as of
#: the access that missed (quantum-start resolution — the simulator
#: refreshes :attr:`MMU.now_cycles` at every scheduling quantum), so
#: hooks can stamp trace events and feed time-windowed consumers without
#: reaching back into the simulator.
MissHook = Callable[[int, int, int], int]


class TLBManagement(enum.Enum):
    """Who refills the TLB on a miss."""

    SOFTWARE = "software"
    HARDWARE = "hardware"


class MMU:
    """TLB + walker for one core.

    Args:
        core_id: index of the owning core.
        page_table: shared :class:`PageTable`.
        tlb_config: geometry of this core's TLB.
        management: software- or hardware-managed refill.
        trap_latency: extra cycles for the OS trap on a software-managed
            miss (kernel entry/exit); zero for hardware-managed.
    """

    def __init__(
        self,
        core_id: int,
        page_table: PageTable,
        tlb_config: Optional[TLBConfig] = None,
        management: TLBManagement = TLBManagement.HARDWARE,
        trap_latency: int = 60,
        l2_tlb_config: Optional[TLBConfig] = None,
        l2_tlb_latency: int = 7,
    ):
        """See class docstring.  ``l2_tlb_config`` adds a second-level TLB
        (Nehalem-style: small L1 TLB backed by a larger unified L2 TLB); an
        L1 miss that hits the L2 TLB pays ``l2_tlb_latency`` instead of a
        walk, and *does not* trap or fire miss hooks — which is exactly why
        the paper sizes its mechanism on the L1 TLB ("the size of the L1
        TLB in the Intel Nehalem architecture")."""
        self.core_id = core_id
        self.page_table = page_table
        self.tlb = TLB(tlb_config, core_id=core_id)
        self.l2_tlb = (
            TLB(l2_tlb_config, core_id=core_id) if l2_tlb_config else None
        )
        self.l2_tlb_latency = l2_tlb_latency
        self.management = management
        self.trap_latency = trap_latency if management is TLBManagement.SOFTWARE else 0
        self.miss_hooks: List[MissHook] = []
        #: Simulated clock of the owning core, refreshed by the simulator
        #: at quantum granularity; passed to miss hooks as the access
        #: timestamp.  Stays 0 for MMUs driven outside a simulator.
        self.now_cycles: int = 0
        self._page_shift = self.tlb.config.page_size.bit_length() - 1

    def add_miss_hook(self, hook: MissHook) -> None:
        """Register a hook fired on every TLB miss (detection mechanisms)."""
        self.miss_hooks.append(hook)

    def translate(self, addr: int) -> int:
        """Translate a virtual address; returns cycles spent on translation.

        A TLB hit is free (the lookup overlaps the L1 access in real
        pipelines).  A miss pays the table walk, the management trap if
        software-managed, and whatever the miss hooks charge.
        """
        return self.translate_vpn(addr >> self._page_shift)

    def translate_vpn(self, vpn: int) -> int:
        """Like :meth:`translate`, for a pre-split virtual page number.

        The batched engine splits a phase's pages in one array pass and
        feeds here the first access of each same-page run of a quantum.
        """
        if vpn < 0:
            # No valid virtual address produces one.
            raise ValueError(f"cannot translate negative VPN {vpn}")
        if self.tlb.lookup(vpn):
            return 0
        if self.l2_tlb is not None and self.l2_tlb.lookup(vpn):
            # Second-level hit: refill the L1 TLB, skip walk/trap/hooks.
            pfn = self.page_table.translate(vpn)
            self.tlb.fill(vpn, pfn if pfn is not None else 0)
            return self.l2_tlb_latency
        pfn, walk_cost = self.page_table.walk(vpn)
        cost = walk_cost + self.trap_latency
        for hook in self.miss_hooks:
            cost += hook(self.core_id, vpn, self.now_cycles)
        self.tlb.fill(vpn, pfn)
        if self.l2_tlb is not None:
            self.l2_tlb.fill(vpn, pfn)
        return cost

    def translate_batch(self, vpn: int, count: int) -> int:
        """Account ``count`` guaranteed L1-TLB-hit translations of ``vpn``.

        Batched-engine fast path for the repeats of a quantum: each repeat
        accesses the page translated just before it, so it is a free hit
        (no walk, no trap, no miss hooks, no L2-TLB traffic) that leaves
        the recency order as it is.  The simulator charges all of a
        quantum's repeats in one call, on its last translated page.
        Returns the cycles charged (0, matching ``count`` hit calls of
        :meth:`translate`).
        """
        self.tlb.lookup_batch(vpn, count)
        return 0

    @property
    def page_shift(self) -> int:
        """log2(page size) — the addr→VPN shift."""
        return self._page_shift

    def vpn_of(self, addr: int) -> int:
        """Virtual page number of ``addr``."""
        return addr >> self._page_shift

    def shootdown(self, vpn: int) -> bool:
        """Invalidate one TLB entry at every level (page-table change)."""
        hit = self.tlb.invalidate(vpn)
        if self.l2_tlb is not None:
            hit = self.l2_tlb.invalidate(vpn) or hit
        return hit

    @property
    def stats(self) -> TLBStats:
        """This core's :class:`~repro.tlb.tlb.TLBStats`."""
        return self.tlb.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MMU(core={self.core_id}, {self.management.value}, {self.tlb!r})"
