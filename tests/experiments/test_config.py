"""Tests for the experiment configuration."""

import pytest

from repro.experiments.config import PAPER_BENCHMARKS, ExperimentConfig


class TestDefaults:
    def test_paper_benchmark_set(self):
        assert len(PAPER_BENCHMARKS) == 9
        assert "dc" not in PAPER_BENCHMARKS  # excluded by the paper too

    def test_default_is_full_suite(self):
        assert ExperimentConfig().benchmarks == PAPER_BENCHMARKS

    def test_paper_like_knobs_constructible(self):
        cfg = ExperimentConfig(sm_sample_threshold=100,
                               hm_period_cycles=10_000_000)
        assert cfg.sm_sample_threshold == 100


class TestValidation:
    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig(benchmarks=("bt", "dc"))

    @pytest.mark.parametrize("field,value", [
        ("scale", 0), ("os_runs", 0), ("mapped_runs", 0),
        ("sm_sample_threshold", 0), ("hm_period_cycles", 0),
        ("cache_scale", 0), ("num_threads", 0), ("detection_windows", 0),
    ])
    def test_positive_fields(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})


class TestQuick:
    def test_frozen(self):
        with pytest.raises(Exception):
            ExperimentConfig().scale = 2.0
