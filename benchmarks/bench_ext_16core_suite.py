"""Extension — the paper's protocol on a 16-core machine.

The paper's conclusion anticipates growth ("with the increase of the
number of cores per chip ... mapping threads to cores is becoming more
important").  ``benchmarks/specs/ext_16core_suite.toml`` runs the full
detect→map→ensemble protocol for two structured NPB kernels at 16
threads on a 2-chip × 4-L2 × 2-core machine; we check the headline shape
survives: the detected mappings beat the OS ensemble on execution time,
invalidations and snoops.
"""

from conftest import bench_spec, spec_params


def test_sixteen_core_protocol(benchmark):
    params = {"scale": min(spec_params()["scale"], 0.25)}
    run = bench_spec(benchmark, "ext_16core_suite", params)

    for name, r in run.results.items():
        assert sorted(r.mappings["SM"]) == list(range(16))
        assert r.normalized_mean("SM", "execution_seconds") < 1.0, name
        assert r.normalized_mean("SM", "invalidations") < 0.9, name
        assert r.normalized_mean("SM", "snoop_transactions") < 0.9, name
