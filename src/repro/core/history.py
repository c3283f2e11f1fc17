"""Pattern drift between two communication windows.

Detector matrices accumulate monotonically over a run; to see *changes* in
the communication pattern (Section III-B4) one compares windows of it.
``pattern_drift`` is the drift gate of the online remap policy
(:mod:`repro.mapping.online`), the paper's future work ("develop dynamic
migration strategies which use the mechanisms described here"); the
remap controller takes its windows from a streaming view
(:mod:`repro.core.streaming`).
"""

from __future__ import annotations

from repro.core.accuracy import pearson_similarity
from repro.core.commmatrix import CommunicationMatrix


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
