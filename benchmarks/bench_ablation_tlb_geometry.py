"""Ablation — TLB size and associativity (DESIGN.md §5.3).

The TLB's capacity bounds how long a page counts as "recently accessed":
too small and real sharing is evicted before it can be observed; too
large and stale entries accumulate (false communication).  The paper's
64-entry 4-way default sits in the workable middle; the fully-associative
variant shows the geometry that changes Table I's complexity row.
Driven by ``benchmarks/specs/ablation_tlb_geometry.toml``.
"""

from conftest import bench_spec, spec_params


def test_tlb_geometry_sweep(benchmark):
    params = {"scale": min(spec_params()["scale"], 0.4)}
    records = bench_spec(benchmark, "ablation_tlb_geometry", params).results

    # Miss rate falls monotonically with capacity (same associativity).
    set_assoc = [r for r in records if r["ways"] == 4]
    rates = [r["tlb_miss_rate"] for r in set_assoc]
    assert all(a >= b - 1e-6 for a, b in zip(rates, rates[1:]))

    # The paper's default geometry detects the pattern.
    default = next(r for r in records if r["entries"] == 64 and r["ways"] == 4)
    assert default["accuracy"] > 0.5
