"""Benchmark entry point.

    python3 perfbench/run.py --workload protocol-sp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It prints a human-readable report, then
as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

WORKLOADS = ("protocol-sp", "protocol-is", "serve-mix", "route-warm")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program to measure: src/repro is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")

    if args.workload.startswith("protocol-"):
        import protocol

        out = protocol.run(args.workload, args.seconds, bool(args.trace))
    else:
        import service

        out = service.run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in out["report"]:
        print("  " + line)
    attempted, failed = out["attempted"], out["failed"]
    print(f"  failed_share: {failed / attempted if attempted else 1.0:.6f} "
          f"({failed} of {attempted} operations failed a check)")
    for name, value in out["metrics"].items():
        print(f"  {name}: {value:.6g} {layers.UNITS[name]}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": layers.UNITS[name]}
            for name, value in out["metrics"].items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
