"""Regenerate ``pins.json``: the protocol outputs the checks compare against.

    python3 perfbench/pin.py

Run from the root of a checkout.  Only do so when a change is meant to
alter simulated results; a change that only speeds the simulator up must
leave every pinned value identical.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import protocol  # noqa: E402


def main() -> int:
    from repro.experiments.runner import ExperimentRunner

    pins = {}
    for workload, (kernel, _scale) in sorted(protocol.WORKLOADS.items()):
        result = ExperimentRunner(protocol.make_config(workload)).run_benchmark(kernel)
        pins[workload] = protocol.fingerprint(result)
    with open(protocol.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
