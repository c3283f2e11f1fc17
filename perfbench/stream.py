"""Seeded ``POST /map`` request streams for the service workloads.

Each connection gets its own stream.  A stream is a repetition of a fixed
block of (class, n) slots in a seeded order, so every seed sends the same
mix in the same proportions and only the matrices and the order differ:

* ``miss`` — a matrix never sent before: canonicalize, then a pool solve;
* ``solve`` — an earlier fresh matrix of this connection with its threads
  relabelled by a new permutation: canonicalize, then a solve-cache hit;
* ``body`` — the exact bytes of an earlier request of this connection:
  a body-cache hit.

Repeats only refer to this connection's own earlier requests, which the
closed loop has already seen answered, so the expected cache class of
every request is known in advance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

Block = List[Tuple[str, int]]

#: The shares of both blocks are assumptions, not measured traffic (see
#: README.md, "The shares are assumptions").
#:
#: 25 requests: 60% body hits, 20% relabelled repeats, 20% fresh solves.
#: Fresh sizes put the median fresh request inside the n=16 class, and
#: 12 of the 15 body hits are n <= 16.
SERVE_MIX: Block = (
    [("body", 8)] * 9 + [("body", 16)] * 3 + [("body", 32)] * 2 + [("body", 64)]
    + [("solve", n) for n in (8, 16, 32, 32, 64)]
    + [("miss", n) for n in (8, 8, 16, 32, 64)]
)

#: 25 requests: 84% n=8 body hits, one relabelled repeat, 12% fresh.
ROUTE_WARM: Block = (
    [("body", 8)] * 21 + [("solve", 8)] + [("miss", 8)] * 2 + [("miss", 16)]
)

#: Distinct bodies a repeat may reach back to; far below the server's
#: 4096-entry caches, so a repeat is never an LRU eviction victim.
HISTORY = 256


@dataclass
class Request:
    kind: str                 # expected X-Repro-Cache: body | solve | miss
    n: int
    base: int                 # id of the fresh matrix this body derives from
    perm: Optional[np.ndarray]  # relabelling of the base (None: the base itself)
    wire: bytes               # the full HTTP request
    body_id: int              # requests with equal bytes share a body id


def topology(n: int) -> Dict[str, int]:
    """A Harpertown-shaped machine with exactly ``n`` cores."""
    return {"chips": n // 4, "cores_per_l2": 2, "l2_per_chip": 2}


def wire(matrix: np.ndarray) -> bytes:
    n = matrix.shape[0]
    body = json.dumps({"matrix": matrix.tolist(), "topology": topology(n)},
                      separators=(",", ":")).encode("utf-8")
    head = (f"POST /map HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
    return head + body


class Stream:
    """An endless request stream for one connection.

    ``bases`` holds every fresh matrix generated so far (the checks need
    them); ``requests`` the first request of every distinct body.
    """

    def __init__(self, seed: int, conn: int, block: Block, prologue: Tuple[int, ...]):
        self.rng = np.random.default_rng([seed, conn, 7919])
        self.block = block
        self.prologue = prologue
        self.bases: List[np.ndarray] = []
        self.requests: List[Request] = []
        self._seen: Set[bytes] = set()
        self._bases_by_n: Dict[int, List[int]] = {}
        self._bodies_by_n: Dict[int, List[int]] = {}

    def _fresh(self, n: int) -> Request:
        a = self.rng.random((n, n)) * 1000.0
        m = np.round((a + a.T) / 2.0, 6)
        np.fill_diagonal(m, 0.0)
        base = len(self.bases)
        self.bases.append(m)
        self._bases_by_n.setdefault(n, []).append(base)
        return self._new_body("miss", n, base, None, wire(m))

    def _relabel(self, n: int) -> Request:
        pool = self._bases_by_n[n][-HISTORY:]
        base = pool[int(self.rng.integers(len(pool)))]
        while True:
            perm = self.rng.permutation(n)
            m = self.bases[base]
            data = wire(m[np.ix_(perm, perm)])
            if hashlib.sha256(data).digest() not in self._seen:
                return self._new_body("solve", n, base, perm, data)

    def _repeat(self, n: int) -> Request:
        pool = self._bodies_by_n[n][-HISTORY:]
        body_id = pool[int(self.rng.integers(len(pool)))]
        prior = self.requests[body_id]
        return Request("body", n, prior.base, prior.perm, prior.wire, body_id)

    def _new_body(self, kind: str, n: int, base: int, perm: Optional[np.ndarray],
                  data: bytes) -> Request:
        body_id = len(self.requests)
        self._seen.add(hashlib.sha256(data).digest())
        self._bodies_by_n.setdefault(n, []).append(body_id)
        req = Request(kind, n, base, perm, data, body_id)
        self.requests.append(req)
        return req

    def __iter__(self) -> Iterator[Request]:
        for n in self.prologue:
            yield self._fresh(n)
        while True:
            order = self.rng.permutation(len(self.block))
            for idx in order:
                kind, n = self.block[int(idx)]
                if kind == "miss":
                    yield self._fresh(n)
                elif kind == "solve":
                    yield self._relabel(n)
                else:
                    yield self._repeat(n)
