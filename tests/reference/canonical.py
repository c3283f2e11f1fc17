"""Loop-based reference for :mod:`repro.service.canonical`.

Weighted 1-WL refinement and greedy individualization one element at a
time: every weight is encoded by :func:`_weight_bytes`, every item list
is a Python ``sorted``, and each greedy step takes a ``min`` over byte
strings.  The production version must return the identical
``(canon, perm)`` pair.  Not used by the program.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

_LITTLE_ENDIAN = np.little_endian


def _weight_bytes(w: float) -> bytes:
    """A weight as 8 bytes whose lexicographic order is *descending* numeric."""
    raw = np.float64(w).tobytes()[::-1] if _LITTLE_ENDIAN else np.float64(w).tobytes()
    return bytes(0xFF - b for b in raw)


def _partition(sigs: List[bytes]) -> List[Tuple[int, ...]]:
    """The signature classes as a canonical list of index tuples."""
    groups: dict = {}
    for i, s in enumerate(sigs):
        groups.setdefault(s, []).append(i)
    return sorted(tuple(v) for v in groups.values())


def refine_signatures(m: np.ndarray) -> List[bytes]:
    """Weighted 1-WL refinement; returns one stable signature per thread."""
    n = m.shape[0]
    sigs = []
    for i in range(n):
        h = hashlib.sha256(b"row\x00")
        for item in sorted(_weight_bytes(m[i, j]) for j in range(n) if j != i):
            h.update(item)
        sigs.append(h.digest())
    classes = _partition(sigs)
    for _ in range(n):
        nxt: List[bytes] = []
        for i in range(n):
            h = hashlib.sha256()
            h.update(sigs[i])
            neighbors = sorted(
                _weight_bytes(m[i, j]) + sigs[j]
                for j in range(n)
                if j != i
            )
            for item in neighbors:
                h.update(item)
            nxt.append(h.digest())
        nxt_classes = _partition(nxt)
        if nxt_classes == classes:
            return nxt
        sigs, classes = nxt, nxt_classes
    return sigs


def canonical_form(matrix: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Canonical matrix and the permutation that produced it."""
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    sigs = refine_signatures(m)
    keys: List[bytearray] = [bytearray() for _ in range(n)]
    remaining = list(range(n))
    order: List[int] = []
    while remaining:
        pick = min(remaining, key=lambda i: (bytes(keys[i]) + sigs[i], i))
        remaining.remove(pick)
        order.append(pick)
        for i in remaining:
            keys[i] += _weight_bytes(m[i, pick])
    perm = tuple(order)
    canon = np.ascontiguousarray(m[np.ix_(perm, perm)])
    return canon, perm
