"""Figure 6 — execution time normalized to the OS scheduler.

Driven by ``benchmarks/specs/fig6_exec_time.toml``; the spec shares its
protocol cells with fig4's through the on-disk cache.  Shape targets
(paper Section VI-B): every benchmark runs at least as fast under the
detected mappings as under the OS scheduler; SP shows the largest
improvement (paper: −15.3%); the homogeneous benchmarks (CG, EP, FT)
show essentially none.
"""

from conftest import bench_spec, spec_params

from repro.experiments.figures import figure_data


def test_render_fig6(benchmark):
    run = bench_spec(benchmark, "fig6_exec_time", spec_params())

    data = figure_data(run.results, 6)

    # Nobody loses to the OS scheduler (beyond noise).
    for name, row in data.items():
        assert row["SM"] < 1.03, (name, row)
        assert row["HM"] < 1.03, (name, row)

    # SP is the biggest winner, with a double-digit improvement.
    sm_gains = {name: 1.0 - row["SM"] for name, row in data.items()}
    assert max(sm_gains, key=sm_gains.get) in ("sp", "lu")
    assert sm_gains["sp"] > 0.10

    # Homogeneous benchmarks gain (next to) nothing.
    for name in ("cg", "ep", "ft"):
        assert abs(1.0 - data[name]["SM"]) < 0.05, (name, data[name])
