#!/usr/bin/env python3
"""Reproduce the paper's evaluation on the NPB trace kernels.

Runs the full protocol for a chosen subset of the NAS benchmarks —
SM + HM detection, hierarchical mapping, OS/SM/HM performance ensembles —
through the reproduction report's spec (``benchmarks/specs/report.toml``),
and prints the paper's figures and tables for them, paper value next to
measured value.

Usage:
    python examples/npb_reproduction.py                 # quick subset
    python examples/npb_reproduction.py sp mg ua        # chosen kernels
    python examples/npb_reproduction.py --full          # all nine (slower)
"""

import dataclasses
import sys

from repro.experiments import figures, paper_values, tables
from repro.experiments.config import PAPER_BENCHMARKS
from repro.experiments.report import headline_comparison
from repro.experiments.specs import SPEC_DIR, load_spec, run_spec


def pick_benchmarks(argv) -> tuple:
    if "--full" in argv:
        return PAPER_BENCHMARKS
    names = tuple(a.lower() for a in argv if not a.startswith("-"))
    return names or ("sp", "mg", "ep")


def main() -> None:
    benchmarks = pick_benchmarks(sys.argv[1:])
    spec = dataclasses.replace(load_spec(SPEC_DIR / "report.toml"),
                               kernels=benchmarks)
    params = {"scale": 0.4, "os_runs": 4, "mapped_runs": 2}
    print(f"Running {', '.join(b.upper() for b in benchmarks)} "
          f"at scale {params['scale']} ({params['os_runs']} OS placements)...\n")
    run = run_spec(spec, params=params)
    print("\n".join(run.rows))
    results = run.results

    print("\n--- Figure 4: SM-detected communication patterns ---------------")
    for name, heatmap in figures.fig4(results).items():
        print()
        print(heatmap)

    print("\n--- Figure 6: execution time normalized to OS ------------------")
    data = figures.figure_data(results, 6)
    paper = paper_values.normalized_table4(paper_values.TABLE4_EXECUTION_TIME)
    print(f"{'bench':>6} {'paper SM':>9} {'ours SM':>9} {'paper HM':>9} {'ours HM':>9}")
    for name in benchmarks:
        print(f"{name.upper():>6} {paper[name]['SM']:>9.3f} "
              f"{data[name]['SM']:>9.3f} {paper[name]['HM']:>9.3f} "
              f"{data[name]['HM']:>9.3f}")

    print("\n--- Table III: SM overhead -------------------------------------")
    print(tables.table3(results))

    if set(benchmarks) == set(PAPER_BENCHMARKS):
        print("\n--- Headline claims --------------------------------------------")
        for key, row in headline_comparison(results).items():
            print(f"{key}: paper {row['paper']:.1%} on "
                  f"{row['benchmark'].upper()}, measured {row['measured']:.1%}")


if __name__ == "__main__":
    main()
