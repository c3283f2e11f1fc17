"""Differential: the recency-ordered TLB against the stamp-based reference.

Both simulation engines share :class:`~repro.tlb.tlb.TLB`, so the engine
differential cannot see a changed replacement decision.  This module
can: it drives the TLB and :class:`tests.reference.tlb.ReferenceTLB`
(per-way tags and LRU stamps, the representation the TLB replaced)
through random operation sequences and, after every step, compares the
return value, every stat and each set's resident pages in recency order.

Sequences mix ``lookup``, ``lookup_batch`` on resident pages, ``fill``
of new and of resident pages, ``invalidate``, ``flush`` and ``probe``,
on 1-way, 4-way and fully associative geometries.  Two seeded faults,
evicting the most recently used page and refilling a resident page
without making it most recent, must each be caught.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple, Type

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.tlb.tlb import TLB, TLBConfig
from tests.reference.tlb import ReferenceTLB

GEOMETRIES = {
    "direct": TLBConfig(entries=4, ways=1),
    "4-way": TLBConfig(entries=8, ways=4),
    "fully": TLBConfig(entries=4, ways=4),
}

Op = Tuple[str, int, int]

#: Op kinds, repeated to weight the draw: lookups and fills of pages
#: 0..23 (several times what any set holds), ops on the k-th resident
#: page (batches and refreshes), and rarer invalidations, probes and
#: flushes, so that sets fill up and evict between flushes.
KINDS = (["lookup"] * 10 + ["fill"] * 10 + ["lookup_batch"] * 3 + ["refill"] * 3
         + ["invalidate"] * 2 + ["probe"] * 2 + ["flush"])

ops = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 23), st.integers(1, 300)),
    min_size=30, max_size=120,
)


def apply(tlb, op: Op, vpn: int) -> object:
    kind, _, arg = op
    if kind == "lookup":
        return tlb.lookup(vpn)
    if kind == "lookup_batch":
        return tlb.lookup_batch(vpn, arg)
    if kind in ("fill", "refill"):
        return tlb.fill(vpn, arg)
    if kind == "invalidate":
        return tlb.invalidate(vpn)
    if kind == "probe":
        return tlb.probe(vpn)
    return tlb.flush()


def first_divergence(cls: Type[TLB], config: TLBConfig,
                     sequence: List[Op]) -> Optional[str]:
    """Run ``sequence`` on ``cls`` and the reference; the first mismatch."""
    tlb = cls(config)
    ref = ReferenceTLB(config)
    for step, op in enumerate(sequence):
        vpn = op[1]
        if op[0] in ("lookup_batch", "refill"):
            resident = sorted(v for s in range(config.num_sets)
                              for v in ref.recency(s))
            if not resident:
                continue
            vpn = resident[vpn % len(resident)]
        got, want = apply(tlb, op, vpn), apply(ref, op, vpn)
        if got != want:
            return f"step {step} {op}: returned {got!r}, reference {want!r}"
        if dataclasses.asdict(tlb.stats) != dataclasses.asdict(ref.stats):
            return f"step {step} {op}: stats {tlb.stats} != {ref.stats}"
        for s in range(config.num_sets):
            if tlb.set_entries(s) != ref.recency(s):
                return (f"step {step} {op}: set {s} holds {tlb.set_entries(s)}, "
                        f"reference {ref.recency(s)} (LRU first)")
    return None


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@given(sequence=ops)
def test_matches_reference(geometry, sequence):
    assert first_divergence(TLB, GEOMETRIES[geometry], sequence) is None


class _EvictsMostRecent(TLB):
    """Seeded fault: a fill into a full set evicts its most recent page."""

    def fill(self, vpn: int, pfn: int = 0) -> Optional[int]:
        entries = self._sets[vpn & self._set_mask]
        if vpn not in entries and len(entries) >= self._ways:
            order = list(entries.items())
            entries.clear()
            entries.update(order[-1:] + order[:-1])
        return super().fill(vpn, pfn)


class _RefreshKeepsRecency(TLB):
    """Seeded fault: refilling a resident page leaves it where it was."""

    def fill(self, vpn: int, pfn: int = 0) -> Optional[int]:
        entries = self._sets[vpn & self._set_mask]
        if vpn in entries:
            entries[vpn] = pfn
            return None
        return super().fill(vpn, pfn)


@pytest.mark.parametrize("mutant", [_EvictsMostRecent, _RefreshKeepsRecency],
                         ids=lambda cls: cls.__name__.lstrip("_"))
def test_seeded_faults_are_caught(mutant):
    found = find(
        st.tuples(st.sampled_from(sorted(GEOMETRIES)), ops),
        lambda case: first_divergence(mutant, GEOMETRIES[case[0]], case[1]) is not None,
        settings=settings(derandomize=True, database=None, max_examples=500,
                          phases=[Phase.generate]),
    )
    assert first_divergence(mutant, GEOMETRIES[found[0]], found[1])
