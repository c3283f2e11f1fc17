"""Artifact gate: a fresh bench run must reproduce every tracked artifact.

Run via ``make bench-check`` (wired into ``make ci``) or directly from the
repository root::

    PYTHONPATH=src python benchmarks/artifact_check.py

Reads every tracked file under ``benchmarks/out/`` and ``BENCH_remap.json``,
runs the bench suite with ``REPRO_BENCH_CACHE=0`` and every other
``REPRO_BENCH_*`` knob at its default, then compares each file with its
content before the run.  A difference means a simulated result or a report
format changed while the tracked artifacts did not.  Comparing with the
content before the run, not with ``HEAD``, lets a regeneration that is not
yet committed pass.  Exit status is 0 when every artifact came back
byte-identical.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("benchmarks/out", "BENCH_remap.json")


def main() -> int:
    """Snapshot, run the benches, compare; returns the process exit code."""
    listed = subprocess.run(["git", "ls-files", "--", *ARTIFACTS], cwd=ROOT,
                            check=True, capture_output=True, text=True)
    paths = listed.stdout.splitlines()
    before = {path: (ROOT / path).read_bytes() for path in paths}
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_BENCH_")}
    env["REPRO_BENCH_CACHE"] = "0"
    bench = subprocess.run([sys.executable, "-m", "pytest", "benchmarks", "-q"],
                           cwd=ROOT, env=env)
    if bench.returncode != 0:
        print(f"bench-check: the bench suite failed (exit {bench.returncode})",
              file=sys.stderr)
        return 1
    changed = [path for path in paths
               if not (ROOT / path).is_file() or (ROOT / path).read_bytes() != before[path]]
    for path in changed:
        print(f"bench-check: {path} differs from its content before the run",
              file=sys.stderr)
    if changed:
        print(f"bench-check: {len(changed)} of {len(paths)} artifacts changed; "
              f"the run rewrote them, review with `git diff`", file=sys.stderr)
        return 1
    print(f"bench-check: OK ({len(paths)} artifacts byte-identical after a "
          f"fresh-cache bench run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
