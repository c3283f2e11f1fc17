"""Smoke benchmark: the batched engine vs the scalar reference.

Driven by ``benchmarks/specs/engine_speedup.toml`` (the ``engine``
pipeline).  Runs the heaviest Figure-6 kernel (SP at the bench scale)
through both engines on identical, pre-materialized traces and asserts
two things:

1. **Bit-identity** — every paper counter (execution cycles, per-core
   cycles, invalidations, snoops, L2 misses, TLB misses, ...) matches
   exactly between engines.  This is the acceptance gate for the fast
   path; any divergence is a correctness bug, not a tolerance issue.
2. **A conservative speedup floor** — the batched engine must be at
   least ``REPRO_BENCH_SPEEDUP_FLOOR``× faster (default 2.0).  Measured
   speedups on an otherwise idle machine are ~3-4× (see
   benchmarks/README.md); the floor is set well below that so a noisy
   shared CI box doesn't flake, while still catching a fast-path
   regression to scalar-equivalent speed.

Runs standalone (``python benchmarks/bench_engine_speedup.py``) or under
pytest with the rest of the bench suite; either way it rewrites the
tracked ``benchmarks/out/engine_speedup.txt``, which holds only what a
re-run reproduces (kernel, scale, accesses and the compared counters).
The timings go to stdout.
"""

from __future__ import annotations

import os

from conftest import run_bench_spec


def _bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))


def _speedup_floor() -> float:
    return float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "2.0"))


def run_speedup_smoke():
    """Run both engines; the pipeline asserts identity + floor."""
    return run_bench_spec("engine_speedup", params={
        "scale": _bench_scale(), "speedup_floor": _speedup_floor(),
    })


def timing_text(run) -> str:
    """The wall-clock lines, which differ on every run."""
    keys = ("scalar_seconds", "batched_seconds", "speedup")
    return "\n".join(f"{k}: {run.results[k]}" for k in keys)


def test_engine_speedup_smoke():
    print(timing_text(run_speedup_smoke()))


if __name__ == "__main__":
    print(timing_text(run_speedup_smoke()))
