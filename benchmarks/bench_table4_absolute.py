"""Table IV — absolute execution time and event rates per policy.

Regenerates the four blocks (execution time, invalidations/s, snoops/s,
L2 misses/s) for OS/SM/HM from the ensembles of
``benchmarks/specs/table4_absolute.toml`` (fig4's protocol cells), and
checks the
paper's ordering facts that survive rescaling: the long-running kernels
(SP/LU/UA) stay the longest, and EP's absolute coherence-event rates are
tiny compared to everyone else's.
"""

from conftest import bench_spec, spec_params

from repro.experiments.tables import table4_data


def test_render_table4(benchmark):
    run = bench_spec(benchmark, "table4_absolute", spec_params())

    data = table4_data(run.results)
    exec_os = {b: row["OS"] for b, row in data["Execution time (s)"].items()}
    # The paper's three long benchmarks are our three longest too.
    longest3 = sorted(exec_os, key=exec_os.get, reverse=True)[:3]
    assert set(longest3) == {"sp", "lu", "ua"}

    # EP shares (almost) nothing: its invalidation and snoop rates are a
    # couple of orders of magnitude below the median benchmark.
    inval = {b: row["OS"] for b, row in data["Invalidations / s"].items()}
    snoop = {b: row["OS"] for b, row in data["Snoop transactions / s"].items()}
    others = sorted(v for b, v in inval.items() if b != "ep")
    assert inval["ep"] < others[len(others) // 2] / 10
    others = sorted(v for b, v in snoop.items() if b != "ep")
    assert snoop["ep"] < others[len(others) // 2] / 10
