"""Tests for the experiment runner (tiny end-to-end protocol runs)."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import BenchmarkResult, ExperimentRunner, MappingRuns
from repro.experiments.specs import ExperimentSpec, run_spec
from repro.obs.metrics import global_registry

TINY = ExperimentConfig(
    benchmarks=("bt",),
    scale=0.12,
    os_runs=2,
    mapped_runs=2,
    sm_sample_threshold=3,
    hm_period_cycles=40_000,
    seed=77,
)


@pytest.fixture(scope="module")
def bt_result() -> BenchmarkResult:
    return ExperimentRunner(TINY).run_benchmark("bt")


class TestDetect:
    def test_matrices_present(self, bt_result):
        assert set(bt_result.detected) == {"SM", "HM", "oracle"}
        for m in bt_result.detected.values():
            m.check_invariants()

    def test_sm_found_communication(self, bt_result):
        assert bt_result.detected["SM"].total > 0
        assert bt_result.detector_stats["SM"]["searches_run"] > 0

    def test_hm_scanned(self, bt_result):
        assert bt_result.detector_stats["HM"]["scans_run"] > 0

    def test_detection_results_have_miss_rates(self, bt_result):
        assert bt_result.detection_results["SM"].tlb_miss_rate > 0


class TestMappingsAndRuns:
    def test_mappings_are_permutations(self, bt_result):
        for policy in ("SM", "HM"):
            assert sorted(bt_result.mappings[policy]) == list(range(8))

    def test_runs_structure(self, bt_result):
        assert set(bt_result.runs) == {"OS", "SM", "HM"}
        assert len(bt_result.runs["OS"].results) == 2
        assert len(bt_result.runs["SM"].results) == 2
        # OS runs use varying placements; SM runs use the fixed mapping.
        assert bt_result.runs["SM"].mappings[0] == bt_result.mappings["SM"]

    def test_metric_extraction(self, bt_result):
        times = bt_result.runs["OS"].metric("execution_seconds")
        assert len(times) == 2 and all(t > 0 for t in times)

    def test_mapped_beats_os_on_neighbor_benchmark(self, bt_result):
        """BT is the archetypal domain-decomposition benchmark: the
        SM-derived mapping must not lose to random placement."""
        assert bt_result.normalized_mean("SM", "execution_seconds") < 1.0
        assert bt_result.normalized_mean("SM", "invalidations") < 1.0

    def test_runs_vary_across_ensemble(self, bt_result):
        cycles = bt_result.runs["OS"].metric("execution_cycles")
        assert cycles[0] != cycles[1]  # different seeds + placements


class TestNormalizedMean:
    def _fake(self, os_vals, sm_vals):
        class R:
            def __init__(self, v):
                self.execution_seconds = v

        return BenchmarkResult(
            name="x", detected={}, detector_stats={}, detection_results={},
            mappings={}, runs={
                "OS": MappingRuns("OS", [], [R(v) for v in os_vals]),
                "SM": MappingRuns("SM", [], [R(v) for v in sm_vals]),
            },
        )

    def test_ratio(self):
        r = self._fake([2.0, 4.0], [1.5])
        assert r.normalized_mean("SM", "execution_seconds") == pytest.approx(0.5)

    def test_zero_baseline_zero_value_is_one(self):
        r = self._fake([0.0], [0.0])
        assert r.normalized_mean("SM", "execution_seconds") == 1.0

    def test_zero_baseline_nonzero_value_is_inf(self):
        r = self._fake([0.0], [1.0])
        assert r.normalized_mean("SM", "execution_seconds") == float("inf")


def _spec(kernels, seed=5) -> ExperimentSpec:
    return ExperimentSpec(name="tiny", kernels=kernels, seeds=(seed,), overrides={
        "scale": 0.1, "os_runs": 1, "mapped_runs": 1,
        "sm_sample_threshold": 4, "hm_period_cycles": 40_000,
    })


class TestParallelSuite:
    def test_workers_equal_serial(self):
        spec = _spec(("ep", "ft"), seed=3)
        serial = run_spec(spec).results
        parallel = run_spec(spec, workers=2).results
        for name in serial:
            a, b = serial[name], parallel[name]
            assert a.runs["OS"].results[0].execution_cycles == \
                   b.runs["OS"].results[0].execution_cycles
            assert a.mappings["SM"] == b.mappings["SM"]
            assert (a.detected["SM"].matrix == b.detected["SM"].matrix).all()


class TestSuite:
    def test_run_spec_keys(self):
        out = run_spec(_spec(("ep",), seed=2012)).results
        assert list(out) == ["ep"]
        assert isinstance(out["ep"], BenchmarkResult)

    def test_warm_cells_count_as_served_benchmarks(self, tmp_path):
        # A cell served from the cache counts in the registry as
        # ExperimentRunner.run_benchmark counts a hit it serves.
        reg = global_registry()
        served = reg.counter("runner_benchmarks_total")
        hits = reg.counter("runner_cache_hits_total")
        spec = _spec(("ep",))
        deltas = []
        for _ in range(2):
            before = (served.value, hits.value)
            run_spec(spec, cache_dir=str(tmp_path))
            deltas.append((served.value - before[0], hits.value - before[1]))
        assert deltas == [(1, 0), (1, 1)]

    def test_pooled_fresh_cells_count_in_the_caller(self, tmp_path):
        # A pool worker counts into its own registry; the caller counts
        # each fresh cell once, as a serial run does.
        reg = global_registry()
        served = reg.counter("runner_benchmarks_total")
        hits = reg.counter("runner_cache_hits_total")
        spec = _spec(("ep", "ft"))

        def counted(**kwargs):
            before = (served.value, hits.value)
            run_spec(spec, **kwargs)
            return served.value - before[0], hits.value - before[1]

        assert counted(workers=2, cache_dir=str(tmp_path)) == (2, 0)
        assert counted(workers=2, cache_dir=str(tmp_path)) == (2, 2)
        assert counted() == (2, 0)

    def test_reproducible(self):
        cfg = ExperimentConfig(
            benchmarks=("ft",), scale=0.1, os_runs=1, mapped_runs=1,
            sm_sample_threshold=4, hm_period_cycles=40_000, seed=5,
        )
        a = ExperimentRunner(cfg).run_benchmark("ft")
        b = ExperimentRunner(cfg).run_benchmark("ft")
        assert a.runs["OS"].results[0].execution_cycles == \
               b.runs["OS"].results[0].execution_cycles
        assert a.mappings["SM"] == b.mappings["SM"]


class TestNoiseRate:
    def test_noise_creates_mapped_run_variance(self):
        cfg = ExperimentConfig(
            benchmarks=("ft",), scale=0.12, os_runs=1, mapped_runs=3,
            sm_sample_threshold=4, hm_period_cycles=40_000, noise_rate=0.05,
        )
        r = ExperimentRunner(cfg).run_benchmark("ft")
        cycles = r.runs["SM"].metric("execution_cycles")
        assert len(set(cycles)) > 1
        assert all(res.preemptions > 0 for res in r.runs["SM"].results)

    def test_noise_rate_validated(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            ExperimentConfig(noise_rate=2.0)
