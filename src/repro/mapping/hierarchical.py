"""The paper's mapping heuristic: repeated matching up the memory hierarchy.

Section V-A: the communication matrix is a complete weighted graph; Edmonds
matching pairs the threads so that intra-pair communication is maximal, and
each pair lands on two cores sharing an L2.  Where the hierarchy has wider
shared levels (four cores per chip on Harpertown), a *second* matrix over
pairs is built with the paper's heuristic

    H[(x,y),(z,k)] = M[x,z] + M[x,k] + M[y,z] + M[y,k]

and matched again, giving pairs-of-pairs that land on chips — and so on for
as many levels as the topology exposes.  The generalization to groups of
any size is the straightforward one: H between two groups is the sum of M
over all cross pairs (for singleton groups it reduces to M, for pairs it is
exactly the paper's formula).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.machine.topology import Topology
from repro.mapping.blossom import max_weight_matching
from repro.obs.trace import get_tracer
from repro.util.validation import (
    check_finite_array,
    check_non_negative_array,
    check_square_array,
)

MatrixLike = Union[CommunicationMatrix, np.ndarray]
Matcher = Callable[[np.ndarray], List[Tuple[int, int]]]

#: Marker for padding slots when thread counts don't fill a level evenly.
_DUMMY = None


def _as_array(comm: MatrixLike) -> np.ndarray:
    if isinstance(comm, CommunicationMatrix):
        return comm.matrix
    a = np.asarray(comm, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"communication matrix must be square, got {a.shape}")
    return a


def _affinity_matrix(m: np.ndarray, work: List[List[int]]) -> np.ndarray:
    """The generalized H over one round's groups (padding slots dropped).

    ``h[i, j]`` is the total communication between groups ``i`` and
    ``j``: for singletons it is M, for pairs the paper's formula.  Group
    pairs are gathered in one block per pair of real sizes, and each
    block is summed along its flattened row, which adds the same values
    in the same order as summing ``m[np.ix_(a, b)]`` as a whole.  Only
    the upper triangle is summed; the lower one is its mirror, because
    the transposed block would add the same values in another order.
    """
    g = len(work)
    h = np.zeros((g, g), dtype=float)
    members = [[t for t in group if t is not _DUMMY] for group in work]
    sizes = np.array([len(r) for r in members])
    table = np.zeros((g, int(sizes.max(initial=0))), dtype=np.intp)
    for i, real in enumerate(members):
        table[i, : len(real)] = real
    rows, cols = np.nonzero(np.arange(g)[:, None] < np.arange(g))
    for sa, sb in sorted(set(zip(sizes[rows].tolist(), sizes[cols].tolist()))):
        if not sa or not sb:
            continue
        pick = (sizes[rows] == sa) & (sizes[cols] == sb)
        a, b = rows[pick], cols[pick]
        blocks = m[table[a, :sa, None], table[b, None, :sb]]
        h[a, b] = blocks.reshape(a.size, sa * sb).sum(axis=1)
    h[cols, rows] = h[rows, cols]
    return h


def _merge_once(
    m: np.ndarray, groups: List[List[int]], matcher: Matcher
) -> List[List[int]]:
    """One matching round: merge groups pairwise by maximum affinity."""
    work = list(groups)
    if len(work) % 2 == 1:
        work.append([_DUMMY])
    g = len(work)
    tracer = get_tracer()
    span = (
        tracer.begin("blossom.round", cat="mapping", args={"groups": g})
        if tracer.enabled
        else None
    )
    pairs = matcher(_affinity_matrix(m, work))
    if span is not None:
        tracer.end(span, args={"pairs": len(pairs)})
    if 2 * len(pairs) != g:
        raise RuntimeError(
            f"matcher returned {len(pairs)} pairs for {g} groups "
            "(perfect matching expected)"
        )
    merged = [work[i] + work[j] for i, j in pairs]
    # Stable order: by smallest real member, keeping output deterministic.
    def key(group: List[int]) -> int:
        real = [t for t in group if t is not _DUMMY]
        return min(real) if real else len(m)

    merged.sort(key=key)
    return merged


def group_threads(
    comm: MatrixLike,
    group_sizes: Sequence[int],
    matcher: Matcher = max_weight_matching,
) -> List[List[int]]:
    """Group threads by communication affinity, level by level.

    Args:
        comm: thread communication matrix.
        group_sizes: target group size per shared level, innermost first
            (Harpertown: ``[2, 4]``).  Each size must be a multiple of the
            previous one; groups double per matching round, so sizes must
            be powers of two times the first size.
        matcher: perfect-matching routine (injectable for the ablation
            comparing Edmonds against greedy pairing).

    Returns:
        List of groups (lists of thread ids, padding removed), ordered by
        smallest member.  Group members appear in merge order, so the
        sub-group structure (which pair is which) is recoverable from
        positions: the first half of a group of 4 is one matched pair.
    """
    m = _as_array(comm)
    n = m.shape[0]
    groups: List[List[int]] = [[t] for t in range(n)]
    for size in group_sizes:
        if size < 1:
            raise ValueError(f"group size must be >= 1, got {size}")
        current = len(groups[0])
        if size % current != 0 or (size // current) & (size // current - 1):
            raise ValueError(
                f"group size {size} not reachable by doubling from {current}"
            )
        while len(groups) > 1 and len(groups[0]) < size:
            groups = _merge_once(m, groups, matcher)
    return [[t for t in g if t is not _DUMMY] for g in groups]


def hierarchical_mapping(
    comm: MatrixLike,
    topology: Optional[Topology] = None,
    matcher: Matcher = max_weight_matching,
) -> List[int]:
    """Thread→core mapping via hierarchical matching (the paper's algorithm).

    Threads are grouped to the topology's shared-level sizes, then groups
    are laid out onto consecutive core blocks: on Harpertown, each group of
    four lands on one chip with its two constituent pairs on the chip's two
    L2s.  All cache domains of a symmetric machine are interchangeable, so
    block assignment in group order is optimal given the grouping.

    Returns ``mapping`` with ``mapping[t]`` = core of thread ``t``.
    """
    topology = topology or Topology()
    m = _as_array(comm)
    n = m.shape[0]
    if n > topology.num_cores:
        raise ValueError(
            f"{n} threads will not fit on {topology.num_cores} cores "
            "(the paper maps one thread per core)"
        )
    sizes = [s for s in topology.group_sizes() if s <= n]
    # Keep merge-tree positions: do NOT strip padding until cores assigned.
    groups: List[List[int]] = [[t] for t in range(n)]
    for size in sizes:
        while len(groups) > 1 and len(groups[0]) < size:
            groups = _merge_once(m, groups, matcher)
    mapping: List[int] = [-1] * n
    core = 0
    for group in groups:
        for t in group:
            if t is not _DUMMY:
                mapping[t] = core
            core += 1  # padding slots still consume a core position
    if core > topology.num_cores:
        raise RuntimeError("group layout overflowed the core set")
    return mapping


@dataclass(frozen=True)
class Mapping:
    """An immutable thread→core assignment (the solver's result type).

    ``assignment[t]`` is the core of thread ``t``.  Frozen and built
    from plain ints so the object pickles byte-identically across
    processes — the contract the service's process-pool workers and the
    result cache rely on.
    """

    assignment: Tuple[int, ...]

    @property
    def num_threads(self) -> int:
        return len(self.assignment)

    def as_list(self) -> List[int]:
        """The assignment as a plain list (JSON-friendly)."""
        return list(self.assignment)


def solve_mapping(
    comm: MatrixLike,
    topology: Optional[Topology] = None,
    matcher: Matcher = max_weight_matching,
) -> Mapping:
    """Pure, picklable entrypoint: communication matrix in, mapping out.

    A side-effect-free wrapper around :func:`hierarchical_mapping`
    designed to be shipped to worker processes: it validates the input
    (square, finite, non-negative — a
    :class:`~repro.util.validation.ValidationError` otherwise),
    symmetrizes it the same way :class:`CommunicationMatrix` does, and
    returns a frozen :class:`Mapping`.

    Determinism: the result is a pure function of ``(matrix bytes,
    topology)``.  Ties are broken deterministically — the blossom solver
    scans edges in a fixed order and :func:`group_threads` sorts merged
    groups by smallest member — so identical matrices yield
    byte-identical ``Mapping`` objects in every process, every time.
    Permutation-stability across *relabeled* inputs is the job of
    :mod:`repro.service.canonical`, which feeds this solver canonical
    matrices.
    """
    if isinstance(comm, CommunicationMatrix):
        arr = comm.matrix
    else:
        arr = check_square_array("communication matrix", comm)
        check_finite_array("communication matrix", arr)
        check_non_negative_array("communication matrix", arr)
        arr = (arr + arr.T) / 2.0
        np.fill_diagonal(arr, 0.0)
    tracer = get_tracer()
    if not tracer.enabled:
        assignment = hierarchical_mapping(arr, topology, matcher)
    else:
        # Observational only: spans never alter the solve, keeping the
        # pure/picklable byte-identical-result contract intact.
        span = tracer.begin(
            "solve_mapping", cat="mapping", args={"threads": int(arr.shape[0])}
        )
        try:
            assignment = hierarchical_mapping(arr, topology, matcher)
        finally:
            tracer.end(span)
    return Mapping(assignment=tuple(int(c) for c in assignment))
