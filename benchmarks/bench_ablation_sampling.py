"""Ablation — SM sampling threshold (DESIGN.md §5.1).

Driven by ``benchmarks/specs/ablation_sampling.toml``: sweeps the paper's
n (search every n-th TLB miss) and renders the accuracy-vs-overhead
trade-off curve.  The expected shape: overhead falls ~linearly with n
while accuracy degrades slowly — which is why the paper can afford n=100
at full scale.
"""

from conftest import bench_spec, spec_params


def test_sm_sampling_sweep(benchmark):
    params = {"scale": min(spec_params()["scale"], 0.4)}
    records = bench_spec(benchmark, "ablation_sampling", params).results

    # Overhead decreases monotonically with n.
    overheads = [r["overhead"] for r in records]
    assert all(a >= b for a, b in zip(overheads, overheads[1:]))
    # Dense sampling is accurate on SP's strong pattern.
    assert records[0]["accuracy"] > 0.8
