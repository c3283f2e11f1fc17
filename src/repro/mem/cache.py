"""Set-associative cache tag store with MESI line states.

One :class:`Cache` instance models one physical cache (an L1 or an L2 slice
of the Harpertown-style hierarchy in Table II of the paper).  It is purely a
tag/state store with LRU replacement; the *protocol* (who gets invalidated
when, what counts as a snoop) lives in :mod:`repro.mem.coherence`, and the
level wiring in :mod:`repro.mem.hierarchy`.

Line states use the MESI lattice even for the write-through L1s (which only
ever hold SHARED lines); this keeps one code path and makes protocol
assertions uniform.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.util.validation import check_positive, check_power_of_two


class MESIState(enum.IntEnum):
    """MESI coherence states.  INVALID lines are not stored."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry and latency (paper Table II shapes the defaults).

    ``num_sets = size / (line_size * ways)`` need not be a power of two
    (6 MiB / 64 B / 8 ways = 12288 sets); the index is taken modulo the set
    count, trading a shift for a modulo — irrelevant at simulation speed.
    """

    size: int = 32 * 1024
    ways: int = 4
    line_size: int = 64
    latency: int = 2
    write_back: bool = False
    name: str = "L1"

    def __post_init__(self) -> None:
        check_positive("size", self.size)
        check_power_of_two("ways", self.ways)
        check_power_of_two("line_size", self.line_size)
        check_positive("latency", self.latency)
        if self.size % (self.line_size * self.ways) != 0:
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"line_size*ways = {self.line_size * self.ways}"
            )

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass
class CacheStats:
    """Per-cache counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations_received: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class Cache:
    """LRU set-associative tag store.

    Lines are identified by their *line number* (address >> log2(line_size));
    callers do the split once so multiple caches can share it.
    """

    #: One dict per set: line -> [state, stamp].  Dicts keep lookups O(1)
    #: even for the 12288-set L2, and sets never exceed `ways` entries.
    #: Built on first use (:meth:`__getattr__`): a hierarchy run by the
    #: batched engine keeps its contents as arrays and may never need them.
    _sets: List[Dict[int, List[int]]]

    def __init__(self, config: CacheConfig, owner_id: int = 0):
        self.config = config
        self.owner_id = owner_id
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._clock = 0

    def __getattr__(self, name: str) -> List[Dict[int, List[int]]]:
        # Only reached while ``_sets`` is unbuilt; after that it is a plain
        # attribute, so the lookup hot paths pay nothing.
        if name != "_sets":
            raise AttributeError(name)
        self._sets = [{} for _ in range(self._num_sets)]
        return self._sets

    # -- lookup/fill ---------------------------------------------------------

    def set_index(self, line: int) -> int:
        """Set that ``line`` maps to."""
        return line % self._num_sets

    def lookup(self, line: int) -> int:
        """LRU-updating lookup; returns the line state (INVALID on miss).

        Hot path: returns the raw int value of the :class:`MESIState` —
        ``MESIState`` is an IntEnum, so ``== MESIState.SHARED`` comparisons
        work, without paying enum construction per access.

        A hit re-inserts the entry (move-to-end), maintaining the class
        invariant that each set dict iterates in ascending-stamp order —
        which is what lets :meth:`insert` evict ``next(iter(set))`` in
        O(1) instead of scanning stamps.  Stamps stay authoritative (and
        unique), so the chosen victim is identical either way.
        """
        self._clock += 1
        s = self._sets[line % self._num_sets]
        entry = s.pop(line, None)
        if entry is None:
            self.stats.misses += 1
            return 0  # MESIState.INVALID
        entry[1] = self._clock
        s[line] = entry
        self.stats.hits += 1
        return entry[0]

    def probe(self, line: int) -> int:
        """Non-destructive state query (snoop path: no LRU, no counters).

        Returns the raw int state like :meth:`lookup`.
        """
        entry = self._sets[line % self._num_sets].get(line)
        return entry[0] if entry is not None else 0

    def insert(self, line: int, state: MESIState) -> Optional[Tuple[int, MESIState]]:
        """Install ``line`` in ``state``; returns ``(victim, victim_state)``
        if an eviction was needed, else None.

        A MODIFIED victim is counted as a writeback here; the caller decides
        whether to charge memory traffic for it.
        """
        if state is MESIState.INVALID:
            raise ValueError("cannot insert a line in INVALID state")
        self._clock += 1
        s = self._sets[line % self._num_sets]
        existing = s.pop(line, None)
        if existing is not None:
            existing[0] = int(state)
            existing[1] = self._clock
            s[line] = existing
            return None
        victim = None
        if len(s) >= self._ways:
            # Move-to-end on every stamp update keeps dict iteration order
            # == ascending-stamp order, so the LRU victim is simply the
            # first key — no scan (see lookup()).
            vline = next(iter(s))
            vstate = s.pop(vline)[0]
            self.stats.evictions += 1
            if vstate == MESIState.MODIFIED:
                self.stats.writebacks += 1
            victim = (vline, MESIState(vstate))
        s[line] = [int(state), self._clock]
        return victim

    def set_state(self, line: int, state: MESIState) -> None:
        """Change the state of a resident line (protocol transitions)."""
        entry = self._sets[line % self._num_sets].get(line)
        if entry is None:
            raise KeyError(f"line {line:#x} not resident in {self.config.name}")
        if state is MESIState.INVALID:
            raise ValueError("use invalidate() to drop a line")
        entry[0] = int(state)

    def invalidate(self, line: int) -> int:
        """Drop a line; returns its prior raw int state (0/INVALID if absent)."""
        s = self._sets[line % self._num_sets]
        entry = s.pop(line, None)
        if entry is None:
            return 0  # MESIState.INVALID
        self.stats.invalidations_received += 1
        return entry[0]

    def flush(self) -> int:
        """Drop everything; returns the number of MODIFIED lines dropped."""
        dirty = 0
        for s in self._sets:
            for entry in s.values():
                if entry[0] == int(MESIState.MODIFIED):
                    dirty += 1
            s.clear()
        return dirty

    # -- content inspection ----------------------------------------------------

    def resident_lines(self) -> Iterator[Tuple[int, MESIState]]:
        """Iterate ``(line, state)`` over all resident lines."""
        for s in self._sets:
            for line, entry in s.items():
                yield line, MESIState(entry[0])

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line % self._num_sets]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        return (
            f"Cache({c.name}#{self.owner_id}, {c.size // 1024}KiB/"
            f"{c.ways}w, occ={self.occupancy()})"
        )
