"""Figure 7 — cache-line invalidations normalized to the OS scheduler.

Driven by ``benchmarks/specs/fig7_invalidations.toml`` (fig4's protocol
cells).  Shape targets: UA shows the largest invalidation reduction
(paper: −41%, "UA achieved the highest reduction of the number of
invalidations"), the domain benchmarks all reduce substantially, and the
homogeneous ones stay flat.
"""

from conftest import bench_spec, spec_params

from repro.experiments.figures import figure_data


def test_render_fig7(benchmark):
    run = bench_spec(benchmark, "fig7_invalidations", spec_params())

    data = figure_data(run.results, 7)
    reductions = {name: 1.0 - min(row["SM"], row["HM"])
                  for name, row in data.items()}

    # Every domain-decomposition benchmark reduces invalidations.
    for name in ("bt", "sp", "lu", "mg", "ua", "is"):
        assert reductions[name] > 0.10, (name, reductions[name])

    # UA is at (or near) the top, beating the paper's -41% in direction.
    top2 = sorted(reductions, key=reductions.get, reverse=True)[:3]
    assert "ua" in top2 or reductions["ua"] > 0.30

    # Homogeneous benchmarks barely move.
    for name in ("cg", "ft"):
        assert reductions[name] < 0.15, (name, reductions[name])
