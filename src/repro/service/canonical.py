"""Permutation-stable canonicalization of communication matrices.

Two clients observing the same application under different thread
numberings send matrices that are permutations of each other:
``B = A[π][:, π]``.  The mapping problem is equivariant — the optimal
mapping for ``B`` is the optimal mapping for ``A`` with threads
relabeled — so the service solves only *canonical forms* and caches by
their hash; each request's answer is recovered by undoing the request's
own permutation.

The canonical ordering is computed in two stages:

1. **Weighted color refinement** (1-dimensional Weisfeiler–Leman):
   every thread starts with a signature derived from its row sum, then
   each round folds in the multiset of ``(edge weight, neighbor
   signature)`` pairs, until the partition into signature classes
   stabilizes.
2. **Greedy individualization**: threads are placed one at a time; each
   unplaced thread is keyed by its weights to the already-placed
   threads *in placement order* (heaviest-first), then by its WL
   signature, and the lexicographically smallest key is placed next.
   This discriminates WL-uniform but structured patterns — e.g. the
   paper's pairwise pattern, where every thread has an identical
   neighborhood multiset but placement immediately separates a thread's
   partner from the rest — and unfolds the order along the heaviest
   links out of the placed prefix, so ties between threads the prefix
   cannot yet see are deferred until structure reaches them.

Stability contract: whenever the per-step ties are genuine
automorphisms of the placed prefix (empirically true for the
communication patterns the paper studies: pairwise, 1-D and 2-D
nearest-neighbour, rings, all-to-all, master–slave), every permutation
of a matrix reaches the *same* canonical form, so all of them share one
cache entry.  For adversarial inputs whose tied threads are not
interchangeable, permutations may land in different cache entries — a
cache-efficiency loss only, never a correctness loss, because each
entry is solved from its own exact bytes.

Both stages are array code over the matrix's inverted IEEE-754 bits (a
uint64 per weight whose numeric order is the byte order the signatures
hash): a refinement round is one row-wise sort plus one sha256 per
thread, and a greedy step is one dense re-rank of the remaining threads.
They return exactly what the per-element formulation returns — the
identity contract ``tests/test_array_differential.py`` checks against
the loop version kept in ``tests/reference``.

Requests reach :func:`canonical_form` through :func:`normalize_matrix`,
the one normalization the shard and the cluster router share.

Hashing feeds :func:`repro.experiments.cache.config_key`, the same
config-hash machinery the experiment runner's on-disk cache uses, so a
key is a stable function of (schema, canonical bytes, topology).
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.experiments.cache import config_key

#: Bump when the canonicalization or response semantics change, so stale
#: cache entries (in-memory only, but also any future shared tier) are
#: never reused across incompatible versions.
SERVICE_SCHEMA = 1


def normalize_matrix(raw: np.ndarray) -> np.ndarray:
    """The one input normalization in front of canonicalization.

    Validates the request matrix (square, finite, non-negative — a
    :class:`~repro.util.validation.ValidationError` otherwise),
    symmetrizes it and clears its diagonal exactly as
    :meth:`CommunicationMatrix.from_array` does, then maps ``-0.0`` to
    ``+0.0``.  Signed zeros pass validation but would otherwise rank as
    the heaviest weight in :func:`canonical_form` and split one matrix
    into two cache entries.  The shard and the router both call this, so
    the router's routing key is the key the shard answers with.
    """
    m = CommunicationMatrix.from_array(raw).matrix
    m[m == 0.0] = 0.0
    return m


def _inverted_bits(m: np.ndarray) -> np.ndarray:
    """Each weight as a uint64 whose numeric order is *descending* weight.

    The big-endian bytes of these integers are the weight encoding the
    signatures hash: IEEE-754 bits order non-negative doubles
    numerically, and inverting them flips that, so heavier edges sort
    first.  Greedy individualization therefore attaches each new thread
    to the heaviest link into the placed prefix — the structurally
    meaningful choice (e.g. a thread's pair partner, a ring neighbour).
    """
    return ~np.ascontiguousarray(m, dtype=np.float64).view(np.uint64)


def _first_of_class(sigs: List[bytes]) -> List[int]:
    """Each thread's smallest class-mate: a canonical form of the partition."""
    first: dict = {}
    return [first.setdefault(s, i) for i, s in enumerate(sigs)]


def _dense_rank(sigs: List[bytes]) -> np.ndarray:
    """Rank of each signature among the distinct ones, in byte order."""
    rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
    return np.array([rank[s] for s in sigs], dtype=np.int64)


def _refine_signatures(inv: np.ndarray) -> List[bytes]:
    """Weighted 1-WL refinement; returns one stable signature per thread.

    ``inv`` is :func:`_inverted_bits` of the matrix.  A thread's first
    signature hashes the sorted multiset of its row's exact weights (not
    the row *sum*: float addition is order-sensitive, so a permuted copy
    could sum to a different last ULP and split the partition
    spuriously).  Each round hashes the thread's signature followed by
    its ``(weight, neighbour signature)`` items in byte order; one
    row-wise ``lexsort`` on (weight bits, signature rank) produces that
    order, because equal sort keys mean equal item bytes.
    """
    n = inv.shape[0]
    steps = np.arange(n - 1)
    cols = steps[None, :] + (steps[None, :] >= np.arange(n)[:, None])
    rows = np.arange(n)[:, None]
    weights = inv[rows, cols]
    sorted_rows = np.sort(weights, axis=1).astype(">u8")
    sigs = [
        hashlib.sha256(b"row\x00" + sorted_rows[i].tobytes()).digest()
        for i in range(n)
    ]
    weight_bytes = weights.astype(">u8").view(np.uint8).reshape(weights.shape + (8,))
    classes = _first_of_class(sigs)
    for _ in range(n):
        sig_bytes = np.frombuffer(b"".join(sigs), dtype=np.uint8).reshape(n, 32)
        order = np.lexsort((_dense_rank(sigs)[cols], weights), axis=1)
        items = np.concatenate(
            (weight_bytes[rows, order], sig_bytes[cols[rows, order]]), axis=2
        )
        nxt = [
            hashlib.sha256(sigs[i] + items[i].tobytes()).digest() for i in range(n)
        ]
        nxt_classes = _first_of_class(nxt)
        if nxt_classes == classes:
            return nxt
        sigs, classes = nxt, nxt_classes
    return sigs


def _individualize(inv: np.ndarray, sigs: List[bytes]) -> List[int]:
    """Greedy placement order (see the module docstring).

    An unplaced thread's key is its weights to the placed threads in
    placement order, then its signature, then its index; the smallest
    key is placed next.  The keys stay equal-length, so their order is a
    dense rank of the weight prefix refined by each pick's column.  Once
    the remaining prefixes are pairwise distinct, later bytes cannot
    reorder them and the rest of the order is final.
    """
    remaining = np.arange(inv.shape[0])
    sig_rank = _dense_rank(sigs)
    prefix = np.zeros(remaining.size, dtype=np.int64)
    order: List[int] = []
    while remaining.size:
        if int(prefix.max()) + 1 == remaining.size:
            order.extend(remaining[np.argsort(prefix)].tolist())
            break
        at = int(np.lexsort((remaining, sig_rank[remaining], prefix))[0])
        pick = int(remaining[at])
        order.append(pick)
        remaining = np.delete(remaining, at)
        prefix = np.delete(prefix, at)
        column = inv[remaining, pick]
        by_key = np.lexsort((column, prefix))
        step = np.empty(remaining.size, dtype=np.int64)
        step[by_key] = np.cumsum(
            np.concatenate(
                ([0], (np.diff(prefix[by_key]) != 0) | (np.diff(column[by_key]) != 0))
            )
        )
        prefix = step
    return order


def canonical_form(matrix: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Canonical matrix and the permutation that produced it.

    Returns ``(canon, perm)`` with ``canon[i, j] == matrix[perm[i],
    perm[j]]`` — i.e. canonical slot ``i`` holds original thread
    ``perm[i]``.  ``matrix`` must already be validated (square, finite,
    symmetric); this function is pure and allocation-only.
    """
    m = np.asarray(matrix, dtype=np.float64)
    inv = _inverted_bits(m)
    perm = tuple(_individualize(inv, _refine_signatures(inv)))
    canon = np.ascontiguousarray(m[np.ix_(perm, perm)])
    return canon, perm


def pack_canonical(canon: np.ndarray) -> bytes:
    """A canonical matrix as its strict upper triangle (row-major float64).

    Lossless for every matrix :func:`normalize_matrix` produces — exactly
    symmetric, ``+0.0`` diagonal — because :func:`unpack_canonical`
    rebuilds the same bytes; it halves what a retained matrix costs.
    """
    n = canon.shape[0]
    upper = np.arange(n)[:, None] < np.arange(n)
    return np.asarray(canon, dtype=np.float64)[upper].tobytes()


def unpack_canonical(packed: bytes, n: int) -> np.ndarray:
    """The square matrix :func:`pack_canonical` packed."""
    upper = np.arange(n)[:, None] < np.arange(n)
    values = np.frombuffer(packed, dtype=np.float64)
    canon = np.zeros((n, n))
    canon[upper] = values
    canon.T[upper] = values
    return canon


def canonical_key(canon: np.ndarray, topo_spec: Tuple[int, int, int]) -> str:
    """Cache key for a canonical matrix on a given topology shape.

    ``topo_spec`` is ``(cores_per_l2, l2_per_chip, chips)`` — the only
    topology degrees of freedom the mapper reads.
    """
    return config_key("repro.service.map", SERVICE_SCHEMA, list(topo_spec), canon)


def unpermute(canon_assignment: Tuple[int, ...], perm: Tuple[int, ...]) -> List[int]:
    """Translate a canonical-order assignment back to original thread ids.

    ``canon_assignment[c]`` is the core of canonical slot ``c``, which
    holds original thread ``perm[c]``.
    """
    mapping = [0] * len(perm)
    for c, core in enumerate(canon_assignment):
        mapping[perm[c]] = int(core)
    return mapping
