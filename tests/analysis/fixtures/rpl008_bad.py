"""Fixture: RPL008 must flag hand-rolled config sweeps in bench scripts."""

from repro.experiments.config import ExperimentConfig
from repro.machine.simulator import SimConfig, Simulator


def sweep_kernels(runner, kernels):
    results = []
    for kernel in kernels:
        config = ExperimentConfig(benchmarks=(kernel,))
        results.append((config, runner.run_benchmark(kernel)))
    return results


def sweep_thresholds(thresholds):
    results = []
    while thresholds:
        n = thresholds.pop()
        results.append(Simulator(SimConfig(sm_sample_threshold=n)))
    return results


def sweep_comprehension(seeds):
    return [SimConfig(seed=seed) for seed in seeds]
