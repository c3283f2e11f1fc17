"""Table III — software-managed TLB statistics per benchmark.

Regenerates the TLB miss rate / sampled-miss fraction / total overhead
columns from the SM detection runs of
``benchmarks/specs/table3_sm_overhead.toml`` (fig4's protocol cells),
and benchmarks one full SM detection pass (the thing whose overhead the
table quantifies).

Shape targets from the paper: IS has by far the highest miss rate (~10×
the others) and the highest overhead (~4%); everything else stays below
~1%.
"""

from conftest import bench_spec, spec_params

from repro.core.detection import DetectorConfig
from repro.core.overhead import overhead_report
from repro.core.sm_detector import SoftwareManagedDetector
from repro.experiments.specs import SPEC_DIR, load_spec
from repro.machine.simulator import Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.tlb.mmu import TLBManagement
from repro.workloads.npb import make_npb_workload


def test_sm_detection_run(benchmark):
    """One full SM detection pass over BT (detector attached, sampling on)."""
    cfg = load_spec(SPEC_DIR / "table3_sm_overhead.toml").config(params=spec_params())

    def run():
        wl = make_npb_workload("bt", scale=min(cfg.scale, 0.25), seed=1)
        system = System(harpertown(),
                        SystemConfig(tlb_management=TLBManagement.SOFTWARE))
        det = SoftwareManagedDetector(
            8, DetectorConfig(sm_sample_threshold=cfg.sm_sample_threshold)
        )
        Simulator(system).run(wl, detectors=[det])
        return det

    det = benchmark.pedantic(run, rounds=1, iterations=1)
    assert det.searches_run > 0


def test_render_table3(benchmark):
    run = bench_spec(benchmark, "table3_sm_overhead", spec_params())

    # Shape assertions against the paper.
    reports = {
        name: overhead_report(r.detector_stats["SM"], r.detection_results["SM"])
        for name, r in run.results.items()
    }
    rates = {name: rep.tlb_miss_rate for name, rep in reports.items()}
    overheads = {name: rep.overhead_fraction for name, rep in reports.items()}
    # IS dominates the miss-rate column by a wide margin.
    assert rates["is"] == max(rates.values())
    assert rates["is"] > 2.5 * sorted(rates.values())[-2]
    # Overhead: IS is among the top three.  (The paper has IS strictly
    # first; in our model IS's TLB walks also inflate its *base* runtime,
    # which compresses the overhead ratio — see EXPERIMENTS.md.)
    top3 = sorted(overheads, key=overheads.get, reverse=True)[:3]
    assert "is" in top3, overheads
