"""Summary statistics shared by the workloads."""

from __future__ import annotations

import math
import os
import resource
import statistics
from typing import Dict, List, Sequence

#: Percentiles tried, highest first, when reporting a timing's tail.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(pct / 100.0 * n) - 1)]


def describe(label: str, values: Sequence[float], unit: str) -> str:
    """One report line: the median, the highest percentile with at least
    ten samples beyond it, and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return f"{label}: no samples"
    line = f"{label}: p50 {statistics.median(ordered):.4f} {unit}"
    for pct in _TAILS:
        if n * (100.0 - pct) >= 1000.0 - 1e-6:  # ten samples beyond, up to rounding
            line += f", p{pct:g} {nearest_rank(ordered, pct):.4f} {unit}"
            break
    else:
        line += " (no percentile above the median has ten samples beyond it)"
    return line + f" (n={n})"


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(root_pid: int) -> float:
    """Summed peak RSS (VmHWM) of ``root_pid`` and all its descendants, MiB."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    total_kb = 0
    stack = [root_pid]
    while stack:
        pid = stack.pop()
        stack.extend(children.get(pid, []))
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
