"""Figure 4 — communication patterns detected by the SM mechanism.

Driven by the declarative spec ``benchmarks/specs/fig4_sm_patterns.toml``
(one heatmap per NPB benchmark, text + SVG); this script only runs the
spec and checks the qualitative claims the paper reads off the figure:
domain-decomposition benchmarks show neighbour-dominant matrices, LU
additionally shows distant (mirror) communication, and the homogeneous
benchmarks show no structure that the mapper could exploit.
"""

from conftest import bench_spec, spec_params

from repro.core.accuracy import pattern_class_of, pearson_similarity


def test_render_fig4(benchmark):
    run = bench_spec(benchmark, "fig4_sm_patterns", spec_params())

    # Qualitative checks, per Section VI-A.
    sm = {name: r.detected["SM"] for name, r in run.results.items()}
    oracle = {name: r.detected["oracle"] for name, r in run.results.items()}

    # Domain benchmarks: detected matrices correlate with ground truth.
    for name in ("bt", "sp", "ua"):
        assert pearson_similarity(sm[name], oracle[name]) > 0.5, name

    # Neighbour dominance in the classic grid kernels.
    for name in ("bt", "sp"):
        assert sm[name].neighbor_fraction() > 0.4, name

    # LU: mirror-partner (distant) communication detected by SM.
    lu = sm["lu"].matrix
    assert lu[0, 7] > 0 or lu[1, 6] > 0

    # Homogeneous benchmarks stay unstructured.
    for name in ("ep",):
        assert pattern_class_of(sm[name]) == "homogeneous", name
