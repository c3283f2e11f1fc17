"""Ablation — HM scan period (DESIGN.md §5.2).

Driven by ``benchmarks/specs/ablation_hm_period.toml``: sweeps the
cycle period between all-pairs TLB scans.  Expected shape:
more frequent scans raise both overhead and accuracy; very sparse scans
degenerate to a handful of instant samples — the temporal-bias regime
behind the paper's Figure 5 artifacts.
"""

from conftest import bench_spec, spec_params


def test_hm_period_sweep(benchmark):
    params = {"scale": min(spec_params()["scale"], 0.4)}
    records = bench_spec(benchmark, "ablation_hm_period", params).results

    scans = [r["scans"] for r in records]
    assert all(a >= b for a, b in zip(scans, scans[1:]))
    overheads = [r["overhead"] for r in records]
    assert overheads[0] >= overheads[-1]
