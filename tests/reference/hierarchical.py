"""Loop-based reference for the group-affinity matrix H of one merge round.

For every pair of groups ``i < j`` the affinity is one ``np.ix_`` gather
summed as a whole, mirrored into ``h[j, i]``; padding slots (``None``)
are dropped first.  :func:`repro.mapping.hierarchical.affinity_matrix`
must produce a bitwise-equal matrix.  Not used by the program.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def _group_affinity(
    m: np.ndarray, a: Sequence[Optional[int]], b: Sequence[Optional[int]]
) -> float:
    ra = [t for t in a if t is not None]
    rb = [t for t in b if t is not None]
    if not ra or not rb:
        return 0.0
    return float(m[np.ix_(ra, rb)].sum())


def affinity_matrix(m: np.ndarray, work: List[List[Optional[int]]]) -> np.ndarray:
    """H over the (already padded) groups of one round."""
    g = len(work)
    h = np.zeros((g, g), dtype=float)
    for i in range(g):
        for j in range(i + 1, g):
            h[i, j] = h[j, i] = _group_affinity(m, work[i], work[j])
    return h
