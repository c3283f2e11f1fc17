"""Consistent-hash ring with virtual nodes.

The router places every shard at :attr:`HashRing.vnodes` pseudo-random
points on a 64-bit ring (SHA-256 of ``"<shard>#<replica>"``) and routes
a key to the owner of the first point at or clockwise-after the key's
own hash.  Virtual nodes smooth the load split; the classic consistency
property holds exactly: adding a shard only *steals* keys (every
remapped key moves **to** the new shard), removing one only *releases*
keys (every remapped key moves **off** the removed shard), so a
membership change disturbs ~``K/N`` of ``K`` keys instead of rehashing
everything.

Keys are hashed in a distinct namespace (``"key:"`` prefix) from vnode
labels so a shard name can never collide with a routing key by
construction.  Everything here is pure and deterministic — two routers
built with the same membership route identically, which is what lets a
restarted router (or a smart client reading ``GET /ring``) agree with
the live one.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Tuple


def _point(label: str) -> int:
    """Position of ``label`` on the 64-bit ring (SHA-256 derived)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Shard membership plus deterministic key → shard routing."""

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        #: Membership-change counter; bumped by :meth:`add` / :meth:`remove`
        #: so clients holding a cached ``GET /ring`` snapshot can detect
        #: staleness cheaply.
        self.version = 0
        self._members: Dict[str, Tuple[int, ...]] = {}
        # Sorted (point, shard_id) pairs; the tuple ordering makes the
        # astronomically-unlikely point collision deterministic too.
        self._ring: List[Tuple[int, str]] = []

    # -- membership --------------------------------------------------------------

    @property
    def shards(self) -> Tuple[str, ...]:
        """Current members, sorted by shard id."""
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._members

    def add(self, shard_id: str) -> None:
        """Join ``shard_id`` (idempotent); bumps :attr:`version` when new."""
        if shard_id in self._members:
            return
        points = tuple(
            _point(f"{shard_id}#{i}") for i in range(self.vnodes)
        )
        self._members[shard_id] = points
        for p in points:
            bisect.insort(self._ring, (p, shard_id))
        self.version += 1

    def remove(self, shard_id: str) -> None:
        """Leave ``shard_id`` (idempotent); bumps :attr:`version` when present."""
        if shard_id not in self._members:
            return
        del self._members[shard_id]
        self._ring = [(p, s) for p, s in self._ring if s != shard_id]
        self.version += 1

    # -- routing -----------------------------------------------------------------

    def lookup(self, key: str) -> str:
        """The shard owning ``key``; raises :class:`LookupError` when empty."""
        if not self._ring:
            raise LookupError("hash ring has no members")
        idx = bisect.bisect_right(self._ring, (_point("key:" + key), "\U0010ffff"))
        if idx == len(self._ring):
            idx = 0  # wrap: the first point clockwise from 2**64
        return self._ring[idx][1]

    def lookup_chain(self, key: str) -> List[str]:
        """Every shard in preference order for ``key``.

        The first element is :meth:`lookup`'s answer; the rest are the
        distinct owners encountered walking the ring clockwise — the
        deterministic failover order the router retries dead shards
        through.
        """
        if not self._ring:
            return []
        start = bisect.bisect_right(self._ring, (_point("key:" + key), "\U0010ffff"))
        chain: List[str] = []
        seen = set()
        for offset in range(len(self._ring)):
            _, shard_id = self._ring[(start + offset) % len(self._ring)]
            if shard_id not in seen:
                seen.add(shard_id)
                chain.append(shard_id)
                if len(chain) == len(self._members):
                    break
        return chain
