"""Chaos test for the spec runner's process pool.

``run_spec`` and ``ExperimentRunner.run_suite`` share one requeue loop
(:func:`repro.experiments.specs.steal_cells`); this drives it through
the spec side with a latched hard crash, as
``tests/faults/test_chaos_runner.py`` does through the suite side.
"""

import pytest

from repro.experiments.specs import ExperimentSpec, run_spec
from repro.faults.injector import PLAN_ENV_VAR, deactivate
from repro.faults.plan import SITE_RUNNER_BENCHMARK, FaultEvent, FaultPlan

TINY = ExperimentSpec(
    name="chaos-tiny",
    kernels=("bt", "cg"),
    seeds=(5,),
    overrides={
        "scale": 0.12,
        "os_runs": 1,
        "mapped_runs": 1,
        "sm_sample_threshold": 3,
        "hm_period_cycles": 40_000,
    },
    reports=("fig6",),
)


@pytest.fixture(autouse=True)
def clean_injector():
    """The env probe may activate a plan in the parent; never leak it."""
    yield
    deactivate()


def test_one_worker_death_is_requeued_and_artifacts_match_serial(
    tmp_path, monkeypatch
):
    latch = tmp_path / "latch"
    plan = FaultPlan(seed=1, events=(
        FaultEvent(site=SITE_RUNNER_BENCHMARK, invocation=1,
                   kind="crash", hard=True, latch=str(latch)),
    ))
    path = tmp_path / "plan.json"
    plan.save(path)
    monkeypatch.setenv(PLAN_ENV_VAR, str(path))

    pooled = run_spec(TINY, workers=2)

    assert latch.exists()  # the crash really fired, in a child
    assert pooled.pool_rebuilds == 1

    monkeypatch.delenv(PLAN_ENV_VAR)
    deactivate()
    serial = run_spec(TINY, workers=1)
    assert serial.pool_rebuilds == 0
    assert pooled.rows == serial.rows
    assert pooled.artifacts == serial.artifacts
