"""Cross-shard cache replication: entries, the router-side store, wire codec.

One :class:`ReplicaEntry` is everything a shard needs to serve a
canonical matrix warm without ever having solved it:

* ``key`` — the canonical cache key (routing key on the ring),
* ``canon_hex`` — the canonical matrix's exact float64 bytes (hex), so
  the receiving shard can also serve ``/map/delta`` against this key
  (the delta path needs the base *matrix*, not just the assignment),
* ``n`` / ``spec`` — thread count and ``(cores_per_l2, l2_per_chip,
  chips)`` topology shape,
* ``assignment`` — the solved canonical-order core assignment; any
  permutation's mapping is recovered client-side of the solve by
  :func:`repro.service.canonical.unpermute`.

The router observes a cold solve (a forwarded ``/map`` answered with
``X-Repro-Cache: miss``), constructs the entry from data it already has
(it canonicalized the body to route it), retains it in a bounded
:class:`ReplicaStore`, and fans it out to sibling shards as a
``POST /cache/push`` document rendered by :func:`render_push`.  A shard
applies a push by populating its solve cache and canonical-matrix cache
(:meth:`repro.service.app.MappingService.handle_cache_push`).  When a
dead shard is replaced, the router replays its whole store into the
fresh process — shard death loses no cached work.

The codec validates strictly and deterministically: documents render
with sorted keys and compact separators, so one store always produces
byte-identical push bodies.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.validation import decode_json

#: Bump on incompatible wire changes; a shard rejects unknown versions.
PUSH_SCHEMA = 1


@dataclass(frozen=True)
class ReplicaEntry:
    """One replicated solve: canonical matrix + assignment under one key."""

    key: str
    canon_hex: str
    n: int
    spec: Tuple[int, int, int]
    assignment: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(self.assignment) != self.n:
            raise ValueError(
                f"assignment has {len(self.assignment)} entries for n={self.n}"
            )
        # float64 matrix bytes, hex-encoded: n*n*8 bytes, 2 chars each.
        expected = self.n * self.n * 16
        if len(self.canon_hex) != expected:
            raise ValueError(
                f"canon_hex has {len(self.canon_hex)} chars, expected {expected} "
                f"for an {self.n}x{self.n} float64 matrix"
            )

    def to_doc(self) -> Dict[str, Any]:
        """JSON-shaped form (the inverse of :meth:`from_doc`)."""
        return {
            "key": self.key,
            "canon": self.canon_hex,
            "n": self.n,
            "spec": list(self.spec),
            "assignment": list(self.assignment),
        }

    @classmethod
    def from_doc(cls, doc: Any) -> "ReplicaEntry":
        """Validate and decode one entry; raises :class:`ValueError`."""
        if not isinstance(doc, dict):
            raise ValueError("replica entry must be a JSON object")
        unknown = set(doc) - {"key", "canon", "n", "spec", "assignment"}
        if unknown:
            raise ValueError(f"unknown replica-entry field(s): {sorted(unknown)}")
        for field in ("key", "canon", "n", "spec", "assignment"):
            if field not in doc:
                raise ValueError(f"replica entry missing field {field!r}")
        key, canon = doc["key"], doc["canon"]
        if not isinstance(key, str) or not key:
            raise ValueError("replica-entry key must be a non-empty string")
        if not isinstance(canon, str):
            raise ValueError("replica-entry canon must be a hex string")
        try:
            bytes.fromhex(canon)
        except ValueError as exc:
            raise ValueError(f"replica-entry canon is not valid hex: {exc}") from exc
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"replica-entry n must be a positive int, got {n!r}")
        spec = doc["spec"]
        if (
            not isinstance(spec, list)
            or len(spec) != 3
            or any(
                isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in spec
            )
        ):
            raise ValueError(
                f"replica-entry spec must be three positive ints, got {spec!r}"
            )
        assignment = doc["assignment"]
        if not isinstance(assignment, list) or any(
            isinstance(c, bool) or not isinstance(c, int) or c < 0
            for c in assignment
        ):
            raise ValueError(
                "replica-entry assignment must be a list of non-negative ints"
            )
        return cls(
            key=key,
            canon_hex=canon,
            n=n,
            spec=(spec[0], spec[1], spec[2]),
            assignment=tuple(assignment),
        )


class ReplicaStore:
    """Bounded, insertion-ordered store of replicated solves.

    LRU-bounded like the shard caches but TTL-free: the store is the
    router's authority on "what the cluster has solved" for replay into
    replacement shards, and replaying a stale-but-correct solve is
    harmless (solves are pure functions of the canonical matrix).
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, ReplicaEntry]" = OrderedDict()
        self.evictions = 0

    def put(self, entry: ReplicaEntry) -> bool:
        """Retain ``entry``; returns True when it is new or changed.

        A duplicate (same key, same content) is a no-op returning False
        so the router's publish counter only counts fresh knowledge.
        """
        existing = self._entries.get(entry.key)
        if existing == entry:
            self._entries.move_to_end(entry.key)
            return False
        if existing is None and len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        return True

    def get(self, key: str) -> Optional[ReplicaEntry]:
        """The entry under ``key``, or None."""
        return self._entries.get(key)

    def entries(self) -> Tuple[ReplicaEntry, ...]:
        """Every retained entry, least-recently-touched first."""
        return tuple(self._entries.values())

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def render_push(entries: Sequence[ReplicaEntry]) -> bytes:
    """A ``POST /cache/push`` body for ``entries`` (byte-deterministic)."""
    doc = {
        "schema": PUSH_SCHEMA,
        "entries": [entry.to_doc() for entry in entries],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def parse_push(body: bytes) -> List[ReplicaEntry]:
    """Decode and validate a push body; raises :class:`ValueError`."""
    try:
        doc = decode_json(body)
    except ValueError as exc:
        raise ValueError(f"push body is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("push body must be a JSON object")
    unknown = set(doc) - {"schema", "entries"}
    if unknown:
        raise ValueError(f"unknown push field(s): {sorted(unknown)}")
    if doc.get("schema") != PUSH_SCHEMA:
        raise ValueError(
            f"unsupported push schema {doc.get('schema')!r}, expected {PUSH_SCHEMA}"
        )
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise ValueError("push 'entries' must be a list")
    return [ReplicaEntry.from_doc(item) for item in raw]
