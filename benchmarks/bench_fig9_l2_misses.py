"""Figure 9 — L2 cache misses normalized to the OS scheduler.

Driven by ``benchmarks/specs/fig9_l2_misses.toml`` (fig4's protocol
cells).  Shape targets: SP shows the largest miss reduction (paper:
−31.1%); miss reductions are generally *smaller* than
invalidation/snoop reductions ("the number of invalidations and snoop
transactions is much more sensitive to thread mapping than cache
misses"); homogeneous benchmarks are flat.
"""

from conftest import bench_spec, spec_params

from repro.experiments.figures import figure_data


def test_render_fig9(benchmark):
    run = bench_spec(benchmark, "fig9_l2_misses", spec_params())

    miss = figure_data(run.results, 9)
    snoop = figure_data(run.results, 8)
    miss_red = {n: 1.0 - min(r["SM"], r["HM"]) for n, r in miss.items()}
    snoop_red = {n: 1.0 - min(r["SM"], r["HM"]) for n, r in snoop.items()}

    # SP leads the miss reductions with a paper-ballpark factor.
    top2 = sorted(miss_red, key=miss_red.get, reverse=True)[:2]
    assert "sp" in top2
    assert miss_red["sp"] > 0.15

    # Misses are less mapping-sensitive than snoops, on aggregate.
    domain = ("bt", "sp", "lu", "mg", "ua")
    assert sum(miss_red[n] for n in domain) < sum(snoop_red[n] for n in domain)

    for name in ("cg", "ep", "ft"):
        assert abs(miss_red[name]) < 0.12, (name, miss_red[name])
