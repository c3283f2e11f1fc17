"""The paper's contribution: TLB-based communication detection + analysis.

* :class:`CommunicationMatrix` — the pairwise thread-communication
  representation everything else consumes (Section III-C).
* :class:`SoftwareManagedDetector` — the SM mechanism: sampled TLB-miss
  trap handler searching the other cores' TLBs (Section IV-A).
* :class:`HardwareManagedDetector` — the HM mechanism: periodic
  all-pairs TLB content scan (Section IV-B).
* :class:`OracleDetector` / :func:`oracle_matrix` — the full-trace
  instrumentation baseline of the related work, used as ground truth.
* :mod:`~repro.core.accuracy` — similarity metrics between detected and
  ground-truth matrices.
* :mod:`~repro.core.overhead` — the cost model behind Table I and
  Table III.
"""

from repro.core.commmatrix import CommunicationMatrix
from repro.core.detection import Detector, DetectorConfig
from repro.core.sm_detector import SoftwareManagedDetector
from repro.core.hm_detector import HardwareManagedDetector
from repro.core.oracle import OracleDetector, oracle_matrix
from repro.core.history import pattern_drift
from repro.core.streaming import DecayedCommMatrix, SlidingWindowCommMatrix
from repro.core.accuracy import (
    cosine_similarity,
    heterogeneity,
    pattern_class_of,
    pearson_similarity,
)
from repro.core.overhead import (
    OverheadReport,
    hm_scan_comparisons,
    overhead_report,
    sm_search_comparisons,
)

__all__ = [
    "CommunicationMatrix",
    "Detector",
    "DetectorConfig",
    "SoftwareManagedDetector",
    "HardwareManagedDetector",
    "OracleDetector",
    "oracle_matrix",
    "pattern_drift",
    "DecayedCommMatrix",
    "SlidingWindowCommMatrix",
    "cosine_similarity",
    "heterogeneity",
    "pattern_class_of",
    "pearson_similarity",
    "OverheadReport",
    "hm_scan_comparisons",
    "overhead_report",
    "sm_search_comparisons",
]
