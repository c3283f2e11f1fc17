"""Table V — run-to-run standard deviations per metric/policy.

The paper's observation behind this table: the OS scheduler's arbitrary
placements make performance *unpredictable* (large execution-time std
devs), while a fixed communication-aware mapping makes it reproducible.
We assert that shape on the ensemble aggregate of
``benchmarks/specs/table5_stddev.toml`` (fig4's protocol cells).
"""

from conftest import bench_spec, spec_params

from repro.experiments.tables import table5_data


def test_render_table5(benchmark):
    run = bench_spec(benchmark, "table5_stddev", spec_params())

    data = table5_data(run.results)["Execution time (s)"]
    # Aggregate over benchmarks: OS placements vary wildly; the mapped
    # policies only see trace-seed noise.
    os_spread = sum(row["OS"] for row in data.values())
    sm_spread = sum(row["SM"] for row in data.values())
    hm_spread = sum(row["HM"] for row in data.values())
    assert os_spread > sm_spread
    assert os_spread > hm_spread
