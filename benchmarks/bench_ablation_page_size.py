"""Ablation — page size vs. detection quality (DESIGN.md §5, extended).

The mechanism observes sharing at *page* granularity.  Larger pages cut
both ways:

* **SM starves**: bigger pages → TLB reach explodes → the miss rate (SM's
  trigger) collapses, and with it the number of search samples;
* **HM coarsens**: the scan still sees TLB contents, but distinct data
  structures start sharing pages, inflating false communication.

The paper implicitly assumes base pages (4 KiB on both its architecture
families); this sweep (``benchmarks/specs/ablation_page_size.toml``)
shows why that matters.
"""

from conftest import bench_spec, spec_params


def test_page_size_sweep(benchmark):
    params = {"scale": min(spec_params()["scale"], 0.3)}
    records = bench_spec(benchmark, "ablation_page_size", params).results

    # Miss rate collapses monotonically as pages grow...
    rates = [r["miss_rate"] for r in records]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    # ...taking SM's sample stream with it.
    assert records[0]["sm_matches"] > records[-1]["sm_matches"]
    # Base pages detect the pattern accurately.
    assert records[0]["sm_accuracy"] > 0.8
