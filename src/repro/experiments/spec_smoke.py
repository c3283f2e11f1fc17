"""Spec-platform smoke check: cold run, warm run, warm must be all hits.

Run via ``make spec-smoke`` (wired into ``make ci``) or directly::

    PYTHONPATH=src python -m repro.experiments.spec_smoke

Executes the ``ablation_sampling`` spec twice at a CI-sized scale into a
fresh temporary cache.  The cold pass must simulate every cell; the warm
pass must hit the cache for every cell and reproduce the cold pass's
rendered artifact byte-for-byte.  That exercises, end to end: TOML spec
loading, the grid runner, the on-disk result cache's key stability, and
the report renderer.  Exit status is 0 on success — the CI contract.
"""

from __future__ import annotations

import sys
import tempfile

from repro.experiments.specs import SPEC_DIR, load_spec, run_spec

SPEC = SPEC_DIR / "ablation_sampling.toml"
PARAMS = {"scale": 0.08}


def main() -> int:
    """Run the cold/warm gate; returns the process exit code."""
    spec = load_spec(SPEC)
    cells = len(spec.sweep["thresholds"])
    with tempfile.TemporaryDirectory(prefix="repro-spec-smoke-") as cache:
        cold = run_spec(spec, params=PARAMS, cache_dir=cache)
        if cold.cache_misses != cells or cold.cache_hits != 0:
            print(f"spec-smoke: cold run expected {cells} misses, got "
                  f"{cold.cache_misses} misses / {cold.cache_hits} hits",
                  file=sys.stderr)
            return 1
        warm = run_spec(spec, params=PARAMS, cache_dir=cache)
        if warm.cache_hits != cells or warm.cache_misses != 0:
            print(f"spec-smoke: warm run expected {cells} hits, got "
                  f"{warm.cache_hits} hits / {warm.cache_misses} misses",
                  file=sys.stderr)
            return 1
        if warm.artifacts != cold.artifacts:
            print("spec-smoke: warm artifacts drifted from cold run",
                  file=sys.stderr)
            return 1
    print(f"spec-smoke: OK ({spec.name}: {cells} cells cold, "
          f"{cells} cached warm, artifacts byte-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
