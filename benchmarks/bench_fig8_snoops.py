"""Figure 8 — snoop transactions normalized to the OS scheduler.

Driven by ``benchmarks/specs/fig8_snoops.toml`` (fig4's protocol cells).
Shape targets: MG shows the largest snoop reduction (paper: −65.4%, "MG
is the benchmark that presented the highest reduction of the number of
snoop transactions"), the domain benchmarks reduce clearly, the
homogeneous ones don't.
"""

from conftest import bench_spec, spec_params

from repro.experiments.figures import figure_data


def test_render_fig8(benchmark):
    run = bench_spec(benchmark, "fig8_snoops", spec_params())

    data = figure_data(run.results, 8)
    reductions = {name: 1.0 - min(row["SM"], row["HM"])
                  for name, row in data.items()}

    # MG leads, with a reduction in the paper's ballpark (>50%).
    assert max(reductions, key=reductions.get) == "mg"
    assert reductions["mg"] > 0.5

    for name in ("bt", "sp", "lu", "ua"):
        assert reductions[name] > 0.15, (name, reductions[name])

    for name in ("cg", "ft", "ep"):
        assert reductions[name] < 0.15, (name, reductions[name])
