"""Seeded-slowdown self-test: the benchmark sees a slowdown where it is.

    python3 -m pytest perfbench/tests/test_selftest.py -q     (about 15 minutes)

A fixed busy-wait is added to one call of the program, through
``PERFBENCH_SLOW``, and each workload is compared with an undelayed
baseline by the acceptance rule the bounds in ``BENCHMARK.json`` define:
a metric is flagged when its median is worse than the baseline median by
more than its bound.  Every run measures for the listed ``run_seconds``.

* A delay in ``MemoryHierarchy.access_batch`` must flag ``p50_ms``
  (protocol_s) on ``protocol-sp`` and on the listed ``protocol-is``, and
  flag nothing on ``serve-mix``.
* A delay in the service's ``canonical_form`` must flag ``serve-mix`` and
  nothing on ``protocol-sp``.

Set-up time is left out of the comparison: neither delay is in set-up.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import layers  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SECONDS = str(json.load(_fh)["run_seconds"])
REPEATS = 3
MEM_DELAY = "repro.mem.hierarchy:MemoryHierarchy.access_batch:0.0001"
CANON_DELAY = "repro.service.app:canonical_form:0.01"
BOUNDS = {name: (better, bound) for name, _unit, better, bound in layers.END_TO_END}
#: workload -> the delays it is run under besides the baseline.
PLAN = {
    "protocol-sp": {"mem": MEM_DELAY, "canon": CANON_DELAY},
    "protocol-is": {"mem": MEM_DELAY},
    "serve-mix": {"mem": MEM_DELAY, "canon": CANON_DELAY},
}


def medians(workload: str, slow: str) -> Dict[str, float]:
    values: Dict[str, List[float]] = {}
    for seed in range(1, REPEATS + 1):
        env = dict(os.environ, PERFBENCH_SLOW=slow)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
             str(seed), "--seconds", SECONDS, "--trace", "0"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        assert doc["correct"], out.stdout
        for name, metric in doc["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def flagged(base: Dict[str, float], cand: Dict[str, float]) -> List[str]:
    """Metrics of ``cand`` worse than ``base`` by more than their bound."""
    out = []
    for name, (better, bound) in BOUNDS.items():
        if name == "setup_s":
            continue
        change = cand[name] / base[name] - 1.0
        if (better == "lower" and change > bound) or (better == "higher" and change < -bound):
            out.append(name)
    return out


@pytest.fixture(scope="module")
def runs() -> Dict[str, Dict[str, Dict[str, float]]]:
    return {
        workload: {label: medians(workload, slow)
                   for label, slow in {"base": "", **delays}.items()}
        for workload, delays in PLAN.items()
    }


def test_memory_delay_shows_on_protocol_workloads_only(runs):
    assert "p50_ms" in flagged(runs["protocol-sp"]["base"], runs["protocol-sp"]["mem"])
    assert "p50_ms" in flagged(runs["protocol-is"]["base"], runs["protocol-is"]["mem"])
    assert flagged(runs["serve-mix"]["base"], runs["serve-mix"]["mem"]) == []


def test_canonicalize_delay_shows_on_serve_mix_only(runs):
    assert flagged(runs["serve-mix"]["base"], runs["serve-mix"]["canon"]) != []
    assert flagged(runs["protocol-sp"]["base"], runs["protocol-sp"]["canon"]) == []
