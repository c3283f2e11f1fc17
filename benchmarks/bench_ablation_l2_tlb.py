"""Ablation — second-level TLBs vs. the SM mechanism.

Modern cores back the small L1 TLB with a large L2 TLB (Nehalem: 64 + 512
entries).  An L1 miss that hits the L2 TLB never traps — so on such
machines, the SM mechanism only sees *walk-level* misses, thinning its
sample stream exactly like larger pages do.  This quantifies how much of
the paper's signal survives a Nehalem-style TLB hierarchy, which the
paper sidesteps by sizing everything on the L1 TLB.  Driven by
``benchmarks/specs/ablation_l2_tlb.toml``.
"""

from conftest import bench_spec, spec_params


def test_l2_tlb_sweep(benchmark):
    params = {"scale": min(spec_params()["scale"], 0.3)}
    records = bench_spec(benchmark, "ablation_l2_tlb", params).results

    walks = [r["walks"] for r in records]
    assert all(a >= b for a, b in zip(walks, walks[1:]))
    assert records[0]["searches"] > records[-1]["searches"]
    assert records[0]["accuracy"] > 0.8
