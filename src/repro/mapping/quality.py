"""Mapping-quality objective: communication volume × core distance.

The standard thread-mapping objective (the quantity Scotch/TreeMatch-style
mappers minimize): a mapping is good when heavily-communicating thread
pairs sit on low-distance core pairs.  The distance matrix comes from the
topology's hop weights (same L2 < same chip < cross chip).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.machine.topology import Topology

MatrixLike = Union[CommunicationMatrix, np.ndarray]


def _as_array(comm: MatrixLike) -> np.ndarray:
    if isinstance(comm, CommunicationMatrix):
        return comm.matrix
    return np.asarray(comm, dtype=float)


def mapping_cost(
    comm: MatrixLike,
    mapping: Sequence[int],
    distance: np.ndarray,
) -> float:
    """Σ over pairs of ``comm[i,j] * distance[core_i, core_j]`` (lower = better)."""
    m = _as_array(comm)
    n = m.shape[0]
    if len(mapping) != n:
        raise ValueError(f"mapping covers {len(mapping)} of {n} threads")
    cores = np.asarray(mapping, dtype=int)
    if len(set(mapping)) != n:
        raise ValueError("mapping must be injective (one thread per core)")
    d = distance[np.ix_(cores, cores)]
    return float((m * d).sum() / 2.0)


def normalized_cost(
    comm: MatrixLike,
    mapping: Sequence[int],
    topology: Topology,
) -> float:
    """Cost scaled to [0, 1]: 0 = all communication inside L2 pairs,
    1 = all communication across chips."""
    m = _as_array(comm)
    total = m.sum() / 2.0
    if total == 0:
        return 0.0
    cost = mapping_cost(comm, mapping, topology.distance_matrix())
    w_min, _, w_max = topology.distance_weights
    lo = total * w_min
    hi = total * w_max
    return float((cost - lo) / (hi - lo)) if hi > lo else 0.0


def communication_locality(
    comm: MatrixLike,
    mapping: Sequence[int],
    topology: Topology,
) -> Dict[str, float]:
    """Fraction of communication at each hierarchy level.

    Returns fractions for ``same_l2``, ``same_chip`` (excluding same-L2)
    and ``cross_chip``; they sum to 1 when any communication exists.
    Each level's total adds its pairs' amounts one after another in
    row-major upper-triangle order (``np.add.accumulate``), so it is the
    same float a pair-by-pair running sum gives.
    """
    m = _as_array(comm)
    n = m.shape[0]
    total = m.sum() / 2.0
    out = {"same_l2": 0.0, "same_chip": 0.0, "cross_chip": 0.0}
    if total == 0:
        return out
    rows, cols = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    amounts = m[rows, cols]
    cores = np.asarray(mapping)
    l2 = cores // topology.cores_per_l2
    chip = cores // topology.cores_per_chip
    same_l2 = l2[rows] == l2[cols]
    same_chip = ~same_l2 & (chip[rows] == chip[cols])
    nonzero = amounts != 0
    for level, mask in (
        ("same_l2", same_l2),
        ("same_chip", same_chip),
        ("cross_chip", ~same_l2 & ~same_chip),
    ):
        picked = amounts[mask & nonzero]
        if picked.size:
            out[level] = np.add.accumulate(picked)[-1]
    return {k: v / total for k, v in out.items()}


def mapping_quality(
    comm: MatrixLike,
    mapping: Sequence[int],
    topology: Topology,
) -> Dict[str, float]:
    """Summary record: absolute cost, normalized cost, per-level locality."""
    report: Dict[str, float] = {
        "cost": mapping_cost(comm, mapping, topology.distance_matrix()),
        "normalized_cost": normalized_cost(comm, mapping, topology),
    }
    report.update(communication_locality(comm, mapping, topology))
    return report
