"""Tests for the on-disk result cache and config hashing."""

import dataclasses
import os
import pickle

import numpy as np

import pytest

from repro.experiments.cache import CACHE_SCHEMA, ResultCache, _canonical, config_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import BenchmarkResult, ExperimentRunner
from repro.experiments.specs import ExperimentSpec, run_spec
from repro.machine.topology import harpertown, nehalem


class TestCanonical:
    def test_dataclass_includes_type_and_fields(self):
        c = _canonical(ExperimentConfig())
        assert c["__type__"] == "ExperimentConfig"
        assert c["seed"] == 2012

    def test_nested_dataclasses_recurse(self):
        c = _canonical(harpertown())
        assert c["l2_config"]["__type__"] == "CacheConfig"
        assert c["l2_config"]["size"] == 6 * 1024 * 1024

    def test_containers_and_primitives(self):
        assert _canonical((1, [2, None], {"k": True})) == [1, [2, None], {"k": True}]

    def test_unserializable_falls_back_to_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert _canonical(Odd()) == "<odd>"


class TestConfigKey:
    def test_deterministic(self):
        assert config_key(ExperimentConfig(), "bt") == config_key(
            ExperimentConfig(), "bt"
        )

    def test_any_field_changes_key(self):
        base = config_key(ExperimentConfig(), "bt")
        assert config_key(ExperimentConfig(seed=1), "bt") != base
        assert config_key(ExperimentConfig(scale=0.5), "bt") != base
        assert config_key(ExperimentConfig(), "cg") != base

    def test_topology_changes_key(self):
        assert config_key(ExperimentConfig(), harpertown(), "bt") != config_key(
            ExperimentConfig(), nehalem(), "bt"
        )

    def test_key_is_hex_and_short(self):
        k = config_key(ExperimentConfig())
        assert len(k) == 32
        int(k, 16)  # must be valid hex


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": [1, 2, 3]})
        assert cache.get("k") == {"x": [1, 2, 3]}
        assert "k" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("absent") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.pkl").write_bytes(b"\x80\x05not a pickle")
        assert cache.get("bad") is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", list(range(1000)))
        path = tmp_path / "k.pkl"
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("k") is None

    def test_overwrite(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2

    def test_no_temp_droppings(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(f"k{i}", i)
        assert not list(tmp_path.glob("*.tmp"))

    def test_creates_missing_root(self, tmp_path):
        nested = tmp_path / "a" / "b"
        ResultCache(nested).put("k", 1)
        assert (nested / "k.pkl").exists()


class TestByteBudget:
    """The LRU byte budget: bounded growth, newest-first survival."""

    @staticmethod
    def _age(cache, key, stamp):
        # Pin mtimes explicitly: sub-microsecond put sequences would
        # otherwise tie, and LRU order must be deterministic under test.
        os.utime(cache._path(key), times=(stamp, stamp))

    def test_rejects_nonpositive_budget(self, tmp_path):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="max_bytes"):
                ResultCache(tmp_path, max_bytes=bad)

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(20):
            cache.put(f"k{i}", b"x" * 1024)
        assert len(cache) == 20
        assert cache.evicted == 0

    def test_evicts_oldest_first(self, tmp_path):
        entry = len(pickle.dumps(b"x" * 1024))
        cache = ResultCache(tmp_path, max_bytes=3 * entry)
        for i, key in enumerate(("a", "b", "c")):
            cache.put(key, b"x" * 1024)
            self._age(cache, key, 1000 + i)
        cache.put("d", b"x" * 1024)
        assert cache.get("a") is None  # oldest went
        assert all(cache.get(k) is not None for k in ("b", "c", "d"))
        assert cache.evicted == 1

    def test_total_stays_under_budget(self, tmp_path):
        entry = len(pickle.dumps(b"x" * 1024))
        budget = 4 * entry
        cache = ResultCache(tmp_path, max_bytes=budget)
        for i in range(12):
            cache.put(f"k{i}", b"x" * 1024)
            self._age(cache, f"k{i}", 1000 + i)
        assert cache.total_bytes() <= budget
        assert len(cache) == 4
        assert cache.evicted == 8

    def test_just_written_entry_survives_even_alone_over_budget(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=16)
        cache.put("big", b"x" * 4096)
        assert cache.get("big") == b"x" * 4096

    def test_hit_refreshes_recency(self, tmp_path):
        entry = len(pickle.dumps(b"x" * 1024))
        cache = ResultCache(tmp_path, max_bytes=2 * entry)
        cache.put("a", b"x" * 1024)
        self._age(cache, "a", 1000)
        cache.put("b", b"x" * 1024)
        self._age(cache, "b", 1001)
        assert cache.get("a") is not None  # touch: "a" becomes newest
        cache.put("c", b"x" * 1024)
        assert cache.get("b") is None  # "b" is now the cold tail
        assert cache.get("a") is not None

    def test_quarantine_outside_the_budget(self, tmp_path):
        entry = len(pickle.dumps(b"x" * 1024))
        cache = ResultCache(tmp_path, max_bytes=2 * entry)
        (tmp_path / "bad.pkl").write_bytes(b"\x80\x05junk" * 500)
        assert cache.get("bad") is None  # quarantined, not deleted
        assert cache.quarantined == 1
        cache.put("a", b"x" * 1024)
        self._age(cache, "a", 1000)
        cache.put("b", b"x" * 1024)
        # Both fit: the quarantined bytes don't count against the budget.
        assert cache.get("a") is not None
        assert cache.get("b") is not None
        assert cache.total_bytes() <= 2 * entry

    def test_eviction_not_triggered_by_reads(self, tmp_path):
        entry = len(pickle.dumps(b"x" * 1024))
        cache = ResultCache(tmp_path, max_bytes=1 * entry)
        cache.put("big", b"x" * 1024)
        (tmp_path / "stray.pkl").write_bytes(pickle.dumps(b"y" * 4096))
        # Over budget via an out-of-band write: reads must not reap.
        assert cache.get("big") is not None
        assert cache.get("stray") is not None
        assert len(cache) == 2


TINY = ExperimentConfig(
    benchmarks=("ep",), scale=0.1, os_runs=1, mapped_runs=1,
    sm_sample_threshold=4, hm_period_cycles=40_000, seed=5,
)


class TestRunnerIntegration:
    def test_second_run_hits_cache(self, tmp_path):
        runner = ExperimentRunner(TINY, cache_dir=str(tmp_path))
        a = runner.run_benchmark("ep")
        assert len(runner.cache) == 1
        b = runner.run_benchmark("ep")
        assert dataclasses.asdict(a.runs["OS"].results[0]) == \
               dataclasses.asdict(b.runs["OS"].results[0])

    def test_cached_equals_uncached(self, tmp_path):
        cached = ExperimentRunner(TINY, cache_dir=str(tmp_path)).run_benchmark("ep")
        fresh = ExperimentRunner(TINY).run_benchmark("ep")
        assert cached.runs["OS"].results[0].execution_cycles == \
               fresh.runs["OS"].results[0].execution_cycles
        assert cached.mappings["SM"] == fresh.mappings["SM"]

    def test_different_seed_different_key(self, tmp_path):
        a = ExperimentRunner(TINY, cache_dir=str(tmp_path))
        b = ExperimentRunner(
            dataclasses.replace(TINY, seed=6), cache_dir=str(tmp_path))
        assert a.benchmark_key("ep") != b.benchmark_key("ep")

    def test_parallel_suite_uses_cache(self, tmp_path):
        spec = ExperimentSpec(
            name="tiny", kernels=("ep", "ft"), seeds=(TINY.seed,),
            overrides={k: getattr(TINY, k) for k in (
                "scale", "os_runs", "mapped_runs", "sm_sample_threshold",
                "hm_period_cycles")},
        )
        cold = run_spec(spec, workers=2, cache_dir=str(tmp_path))
        assert len(ResultCache(tmp_path)) == 2
        warm = run_spec(spec, workers=2, cache_dir=str(tmp_path))
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        first, second = cold.results, warm.results
        for name in first:
            assert first[name].runs["OS"].results[0].execution_cycles == \
                   second[name].runs["OS"].results[0].execution_cycles

    def test_no_cache_dir_means_no_cache(self):
        assert ExperimentRunner(TINY).cache is None

    def test_garbage_cache_entry_recomputed(self, tmp_path):
        runner = ExperimentRunner(TINY, cache_dir=str(tmp_path))
        key = runner.benchmark_key("ep")
        runner.cache.put(key, "not a BenchmarkResult")
        result = runner.run_benchmark("ep")
        assert isinstance(result, BenchmarkResult)
        # The bad entry was replaced by the real result.
        assert isinstance(runner.cache.get(key), BenchmarkResult)

    def test_schema_constant_in_key(self):
        # The schema version participates in hashing: this documents that
        # bumping CACHE_SCHEMA invalidates every existing entry.
        assert isinstance(CACHE_SCHEMA, int)


class TestNdarrayKeys:
    """config_key over ndarrays (the mapping service's canonical keys)."""

    def test_equal_arrays_key_together(self):
        a = np.arange(16.0).reshape(4, 4)
        assert config_key("k", a) == config_key("k", a.copy())

    def test_memory_layout_is_irrelevant(self):
        a = np.arange(16.0).reshape(4, 4)
        fortran = np.asfortranarray(a)
        assert not fortran.flags["C_CONTIGUOUS"]
        assert config_key("k", a) == config_key("k", fortran)

    def test_single_bit_change_keys_apart(self):
        a = np.arange(16.0).reshape(4, 4)
        b = a.copy()
        b[0, 0] = np.nextafter(b[0, 0], 1.0)
        assert config_key("k", a) != config_key("k", b)

    def test_shape_and_dtype_key_apart(self):
        flat = np.zeros(4)
        assert config_key("k", flat) != config_key("k", flat.reshape(2, 2))
        assert config_key("k", flat) != config_key("k", flat.astype(np.float32))

    def test_numpy_scalars_match_python_scalars(self):
        assert config_key("k", np.int64(3)) == config_key("k", 3)
        assert config_key("k", np.float64(0.5)) == config_key("k", 0.5)
