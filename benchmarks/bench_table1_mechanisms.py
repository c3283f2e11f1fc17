"""Table I — mechanism comparison, with measured routine costs.

The paper reports 231 cycles for one SM search and 84,297 cycles for one
HM scan.  Here we *measure* our implementations' per-routine wall time with
pytest-benchmark (the Θ(P) vs Θ(P²·S) gap must be visible in real time),
and render the live Table I via ``benchmarks/specs/table1_mechanisms.toml``.
"""

from conftest import run_bench_spec

from repro.core.detection import DetectorConfig
from repro.core.hm_detector import HardwareManagedDetector
from repro.core.sm_detector import SoftwareManagedDetector
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.tlb.mmu import TLBManagement


def warmed_system(management=TLBManagement.HARDWARE) -> System:
    """A system whose TLBs hold a realistic mix of shared/private pages."""
    system = System(harpertown(), SystemConfig(tlb_management=management))
    for core in range(8):
        for p in range(40):
            # ~25% shared pages, rest private per core.
            vpn = p if p % 4 == 0 else (core + 1) * 1000 + p
            system.mmus[core].translate(vpn << 12)
    return system


def test_sm_search_routine(benchmark):
    """One SM search: probe the 7 other TLBs for one page — Θ(P)."""
    system = warmed_system(TLBManagement.SOFTWARE)
    det = SoftwareManagedDetector(8, DetectorConfig(sm_sample_threshold=1))
    det.attach(system, {c: c for c in range(8)})
    benchmark(det._on_miss, 0, 4, 0)
    det.detach()
    assert det.searches_run > 0


def test_hm_scan_routine(benchmark):
    """One HM scan: all 28 TLB pairs, set by set — Θ(P²·S)."""
    system = warmed_system()
    det = HardwareManagedDetector(8, DetectorConfig(hm_period_cycles=1))
    det.attach(system, {c: c for c in range(8)})
    benchmark(det._scan)
    det.detach()
    assert det.matches_found > 0


def test_render_table1(benchmark):
    run = benchmark(run_bench_spec, "table1_mechanisms")
    text = run.artifacts["table1_mechanisms.txt"]
    assert "Θ(P)" in text
