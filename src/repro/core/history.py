"""Time-resolved communication history (the paper's dynamic-behaviour hook).

Detector matrices accumulate monotonically over a run; to see *changes* in
the communication pattern (Section III-B4) one needs windowed views:
``CommunicationHistory`` snapshots a detector's matrix at chosen instants
and exposes per-window deltas, plus a drift metric between windows.

``pattern_drift`` is the drift gate of the online remap policy
(:mod:`repro.mapping.online`), the paper's future work ("develop dynamic
migration strategies which use the mechanisms described here").  The
remap controller reads a streaming view (:mod:`repro.core.streaming`),
not ``CommunicationHistory`` snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.accuracy import pearson_similarity
from repro.core.commmatrix import CommunicationMatrix


@dataclass(frozen=True)
class Snapshot:
    """One recorded instant: cumulative matrix + the clock when taken."""

    cycle: int
    cumulative: CommunicationMatrix


def pattern_drift(a: CommunicationMatrix, b: CommunicationMatrix) -> float:
    """Dissimilarity between two windows, in [0, 2].

    ``1 - pearson`` over pair amounts: 0 for identical structure, 1 for
    uncorrelated, 2 for inverted.  Two empty windows have zero drift; an
    empty window against a populated one is maximal (the application went
    from communicating to not, or vice versa — that *is* a change).
    """
    a_total = a.total
    b_total = b.total
    if a_total == 0 and b_total == 0:
        return 0.0
    if a_total == 0 or b_total == 0:
        return 1.0
    return 1.0 - pearson_similarity(a, b)


class CommunicationHistory:
    """Ring buffer of matrix snapshots with windowed-delta access."""

    def __init__(self, num_threads: int, capacity: int = 32):
        if capacity < 2:
            raise ValueError("history needs capacity >= 2")
        self.num_threads = num_threads
        self.capacity = capacity
        self._snapshots: List[Snapshot] = []

    def record(self, matrix: CommunicationMatrix, cycle: int) -> None:
        """Snapshot the (cumulative) matrix at clock ``cycle``."""
        if matrix.num_threads != self.num_threads:
            raise ValueError("thread count mismatch")
        if self._snapshots and cycle < self._snapshots[-1].cycle:
            raise ValueError(
                f"snapshots must be recorded in clock order "
                f"({cycle} < {self._snapshots[-1].cycle})"
            )
        self._snapshots.append(Snapshot(cycle=cycle, cumulative=matrix.copy()))
        if len(self._snapshots) > self.capacity:
            self._snapshots.pop(0)

    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def snapshots(self) -> List[Snapshot]:
        return list(self._snapshots)

    def window(self, index: int = -1) -> CommunicationMatrix:
        """Communication that happened *within* window ``index``.

        Window *i* is the delta between snapshots *i* and *i-1*; window 0
        is everything before the first snapshot.  Negative indices count
        from the most recent window, as usual.
        """
        n = len(self._snapshots)
        if n == 0:
            raise IndexError("no snapshots recorded")
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"window {index} out of range (have {n})")
        current = self._snapshots[index].cumulative.matrix
        previous = (
            self._snapshots[index - 1].cumulative.matrix
            if index > 0
            else np.zeros_like(current)
        )
        delta = current - previous
        # Guard against detector resets between snapshots.
        delta[delta < 0] = 0.0
        return CommunicationMatrix.from_array(delta)

    def latest_drift(self) -> Optional[float]:
        """Drift between the two most recent windows (None before that)."""
        if len(self._snapshots) < 2:
            return None
        return pattern_drift(self.window(-1), self.window(-2))

    def drift_series(self) -> List[float]:
        """Drift between each pair of consecutive windows."""
        return [
            pattern_drift(self.window(i), self.window(i - 1))
            for i in range(1, len(self._snapshots))
        ]
