"""Tests for the ablation variants (tiny configurations)."""

import pytest

from repro.experiments.ablations import ABLATION_AXES, mapper_comparison
from repro.machine.topology import harpertown


def _sweep(variant, points):
    """One record per point, the way an ablation spec runs them."""
    run = ABLATION_AXES[variant].run
    return [run("bt", point, 0.12, 2012, harpertown()) for point in points]


class TestSMSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return _sweep("sm_sampling", (1, 8, 64))

    def test_record_fields(self, sweep):
        assert len(sweep) == 3
        for rec in sweep:
            assert set(rec) >= {"threshold", "accuracy", "overhead", "searches"}

    def test_denser_sampling_more_searches(self, sweep):
        assert sweep[0]["searches"] > sweep[1]["searches"] > sweep[2]["searches"]

    def test_denser_sampling_more_overhead(self, sweep):
        assert sweep[0]["overhead"] > sweep[2]["overhead"]

    def test_dense_sampling_is_accurate(self, sweep):
        assert sweep[0]["accuracy"] > 0.5


class TestHMSweep:
    def test_shorter_period_more_scans(self):
        sweep = _sweep("hm_period", (20_000, 400_000))
        assert sweep[0]["scans"] > sweep[1]["scans"]
        assert sweep[0]["overhead"] > sweep[1]["overhead"]


class TestTLBGeometrySweep:
    def test_runs_all_geometries(self):
        sweep = _sweep("tlb_geometry", ((16, 4), (64, 4)))
        assert [r["entries"] for r in sweep] == [16.0, 64.0]

    def test_smaller_tlb_higher_miss_rate(self):
        sweep = _sweep("tlb_geometry", ((16, 4), (256, 4)))
        assert sweep[0]["tlb_miss_rate"] > sweep[1]["tlb_miss_rate"]


class TestMapperComparison:
    @pytest.fixture(scope="class")
    def costs(self):
        return mapper_comparison("bt", scale=0.12, seed=2012)

    def test_all_mappers_present(self, costs):
        assert set(costs) == {
            "hierarchical", "greedy", "drb", "round_robin", "random", "optimal"
        }

    def test_optimal_is_lower_bound(self, costs):
        for name, cost in costs.items():
            assert cost >= costs["optimal"] - 1e-9, name

    def test_hierarchical_beats_random(self, costs):
        assert costs["hierarchical"] < costs["random"]

    def test_hierarchical_near_optimal_on_bt(self, costs):
        assert costs["hierarchical"] <= costs["optimal"] * 1.10


class TestPageSizeSweep:
    def test_miss_rate_monotone(self):
        records = _sweep("page_size", (4096, 65536))
        assert records[0]["miss_rate"] >= records[1]["miss_rate"]
        assert {"page_size", "sm_accuracy", "hm_accuracy"} <= set(records[0])


class TestL2TLBSweep:
    def test_l2_tlb_reduces_walks_and_searches(self):
        records = _sweep("l2_tlb", (0, 512))
        assert records[0]["walks"] >= records[1]["walks"]
        assert records[0]["searches"] >= records[1]["searches"]


class TestPointChecks:
    @pytest.mark.parametrize("variant,point", [
        ("sm_sampling", 1), ("hm_period", 1), ("tlb_geometry", (64, 64)),
        ("page_size", 4096), ("l2_tlb", 0), ("l2_tlb", 4),
    ])
    def test_edge_point_is_accepted(self, variant, point):
        # Threshold and period 1, a fully associative TLB, no L2 TLB and
        # one as small as its 4 ways.  Rejected points are covered through
        # `repro run-spec` in tests/test_cli.py.
        ABLATION_AXES[variant].check(point)
