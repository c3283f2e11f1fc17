"""Loop-based reference for :func:`repro.mapping.quality.communication_locality`.

Walks the upper triangle pair by pair, asking the topology for each
pair's L2 and chip, and adds each amount to its level's running total.
The production version must return bitwise-equal fractions.  Not used
by the program.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.machine.topology import Topology


def communication_locality(
    m: np.ndarray, mapping: Sequence[int], topology: Topology
) -> Dict[str, float]:
    """Fraction of communication at each hierarchy level."""
    n = m.shape[0]
    total = m.sum() / 2.0
    out = {"same_l2": 0.0, "same_chip": 0.0, "cross_chip": 0.0}
    if total == 0:
        return out
    for i in range(n):
        for j in range(i + 1, n):
            amt = m[i, j]
            if amt == 0:
                continue
            a, b = mapping[i], mapping[j]
            if topology.l2_of_core(a) == topology.l2_of_core(b):
                out["same_l2"] += amt
            elif topology.chip_of_core(a) == topology.chip_of_core(b):
                out["same_chip"] += amt
            else:
                out["cross_chip"] += amt
    return {k: v / total for k, v in out.items()}
