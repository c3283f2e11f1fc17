"""Table II — cache configuration, plus hierarchy access throughput.

Table II is configuration, not measurement — it is rendered live from the
Harpertown preset by ``benchmarks/specs/table2_configuration.toml``, so
it cannot drift from the simulated machine.  The benchmark measures the cache hierarchy's raw access throughput (the hot
path of every experiment in this repo).
"""

from conftest import run_bench_spec

from repro.machine.system import System
from repro.machine.topology import harpertown
from repro.util.rng import as_rng


def test_hierarchy_access_throughput(benchmark):
    """Throughput of the L1→L2→bus access path on a mixed access stream."""
    system = System(harpertown())
    rng = as_rng(0)
    addrs = (rng.integers(0, 4096, size=2048) * 64).tolist()
    writes = (rng.random(2048) < 0.3).tolist()
    access = system.hierarchy.access

    def run():
        total = 0
        for addr, w in zip(addrs, writes):
            total += access(0, addr, w)
        return total

    total = benchmark(run)
    assert total > 0


def test_tlb_translate_throughput(benchmark):
    """Throughput of the MMU translate path (TLB hit-dominated)."""
    system = System(harpertown())
    rng = as_rng(1)
    addrs = (rng.integers(0, 32, size=2048) << 12).tolist()
    translate = system.mmus[0].translate

    def run():
        total = 0
        for addr in addrs:
            total += translate(addr)
        return total

    benchmark(run)


def test_render_table2(benchmark):
    run = benchmark(run_bench_spec, "table2_configuration")
    text = run.artifacts["table2_configuration.txt"]
    assert "6144 KiB" in text
