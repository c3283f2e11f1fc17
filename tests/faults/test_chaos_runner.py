"""Chaos tests for the spec runner's pool and the result cache.

Worker death uses a *hard* crash event (``os._exit``) so the parent
observes a genuine ``BrokenProcessPool`` in
:func:`repro.experiments.specs.steal_cells`, and a latch file so exactly
one forked child dies no matter how the pool schedules tasks.  The plan
reaches the children through ``REPRO_FAULT_PLAN`` — the same
environment channel ``repro serve --fault-plan`` uses — which is itself
part of what these tests pin down.
"""

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.specs import ExperimentSpec, run_spec
from repro.faults.injector import PLAN_ENV_VAR, activated, deactivate
from repro.faults.plan import (
    SITE_CACHE_PUT,
    SITE_RUNNER_BENCHMARK,
    FaultEvent,
    FaultPlan,
)
from repro.obs.metrics import global_registry

TINY = ExperimentConfig(
    benchmarks=("bt", "cg"),
    scale=0.12,
    os_runs=1,
    mapped_runs=1,
    sm_sample_threshold=3,
    hm_period_cycles=40_000,
    seed=5,
)

TINY_SPEC = ExperimentSpec(
    name="chaos-tiny",
    kernels=TINY.benchmarks,
    seeds=(TINY.seed,),
    overrides={k: getattr(TINY, k) for k in (
        "scale", "os_runs", "mapped_runs", "sm_sample_threshold",
        "hm_period_cycles")},
    reports=("fig6",),
)


@pytest.fixture(autouse=True)
def clean_injector():
    """The env probe may activate a plan in the parent; never leak it."""
    yield
    deactivate()


class TestPoolWorkerDeath:
    def test_one_worker_death_is_requeued_and_results_match_serial(
        self, tmp_path, monkeypatch
    ):
        latch = tmp_path / "latch"
        plan = FaultPlan(seed=1, events=(
            FaultEvent(site=SITE_RUNNER_BENCHMARK, invocation=1,
                       kind="crash", hard=True, latch=str(latch)),
        ))
        path = tmp_path / "plan.json"
        plan.save(path)
        monkeypatch.setenv(PLAN_ENV_VAR, str(path))

        pooled = run_spec(TINY_SPEC, workers=2)

        assert latch.exists()  # the crash really fired, in a child
        assert pooled.pool_rebuilds == 1
        assert set(pooled.results) == {"bt", "cg"}

        monkeypatch.delenv(PLAN_ENV_VAR)
        deactivate()
        serial = run_spec(TINY_SPEC, workers=1)
        # Rows and artifacts: tests/faults/test_chaos_specs.py.
        for name, result in serial.results.items():
            assert pooled.results[name].mappings == result.mappings
            assert pooled.results[name].detector_stats == result.detector_stats

    def test_second_pool_death_is_fatal(self):
        from concurrent.futures.process import BrokenProcessPool

        # No latch, generous count: every child of every pool dies.
        plan = FaultPlan(seed=2, events=(
            FaultEvent(site=SITE_RUNNER_BENCHMARK, invocation=1,
                       kind="crash", count=99, hard=True),
        ))
        rebuilds = global_registry().counter("runner_pool_rebuilds_total")
        before = rebuilds.value
        with activated(plan):
            with pytest.raises(BrokenProcessPool):
                run_spec(TINY_SPEC, workers=2)
        assert rebuilds.value - before == 1  # exactly one retry, then fatal


class TestCachePutCorruption:
    def corrupt_once(self, seed=3):
        return FaultPlan(seed=seed, events=(
            FaultEvent(site=SITE_CACHE_PUT, invocation=1, kind="corrupt"),
        ))

    def test_corrupt_entry_is_quarantined_not_crashed_on(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with activated(self.corrupt_once()):
            cache.put("k", {"payload": list(range(50))})
            assert cache.get("k") is None  # damaged → miss, not raise
            assert cache.quarantined == 1
            qdir = cache.root / ResultCache.QUARANTINE_DIR
            assert list(qdir.glob("*.pkl")) and not (cache.root / "k.pkl").exists()
            cache.put("k", {"payload": list(range(50))})  # invocation 2: clean
            assert cache.get("k") == {"payload": list(range(50))}

    def test_runner_recomputes_through_a_corrupted_cache_entry(self, tmp_path):
        """End to end: a corrupted result pickle must cost a recompute,
        never a crash and never a half-trusted deserialization."""
        cache_dir = tmp_path / "cache"
        with activated(self.corrupt_once(seed=4)):
            first = ExperimentRunner(TINY, cache_dir=str(cache_dir)).run_benchmark("bt")
        # New runner, clean injector: the damaged entry is a miss.
        runner = ExperimentRunner(TINY, cache_dir=str(cache_dir))
        second = runner.run_benchmark("bt")
        assert runner.cache is not None and runner.cache.quarantined == 1
        assert second.mappings == first.mappings
        # The recompute re-put a good entry; third read is a real hit.
        third = runner.run_benchmark("bt")
        assert third.mappings == first.mappings
