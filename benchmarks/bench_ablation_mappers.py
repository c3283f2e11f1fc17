"""Ablation — mapping algorithms (DESIGN.md §5.4).

Compares the paper's hierarchical Edmonds mapper against greedy pairing,
Scotch-style dual recursive bipartitioning, scatter/random placement and
the brute-force optimum, on the ground-truth matrices of three
structurally different benchmarks.  Expected: hierarchical ≈ optimal ≪
random, with greedy and DRB in between.
"""

from conftest import save_artifact, spec_params

from repro.experiments.ablations import mapper_comparison
from repro.mapping.blossom import max_weight_matching
from repro.util.render import format_table
from repro.util.rng import as_rng

import numpy as np


def test_mapper_comparison(benchmark, out_dir):
    scale = min(spec_params()["scale"], 0.4)

    def run():
        return {
            name: mapper_comparison(name, scale=scale, seed=2012)
            for name in ("sp", "lu", "ua")
        }

    by_bench = benchmark.pedantic(run, rounds=1, iterations=1)
    mappers = ["optimal", "hierarchical", "drb", "greedy", "round_robin", "random"]
    rows = [
        [name.upper()] + [f"{by_bench[name][m]:.0f}" for m in mappers]
        for name in by_bench
    ]
    text = format_table(rows, header=["bench"] + mappers)
    save_artifact(out_dir, "ablation_mappers.txt", text)

    for name, costs in by_bench.items():
        assert costs["hierarchical"] <= costs["optimal"] * 1.15, name
        assert costs["hierarchical"] < costs["random"], name
        assert costs["hierarchical"] < costs["round_robin"], name


def test_blossom_matching_speed(benchmark):
    """Raw Edmonds solve time on a dense 32-vertex instance (the matcher
    is re-run at every hierarchy level; it must stay interactive)."""
    rng = as_rng(0)
    w = rng.random((32, 32)) * 100
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0)
    pairs = benchmark(max_weight_matching, w)
    assert len(pairs) == 16
