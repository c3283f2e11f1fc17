"""Shared helpers for the benchmark harness.

Every paper figure, table and parameter ablation a bench renders comes
from a declarative spec under ``benchmarks/specs/`` (see DESIGN.md §16),
executed by :func:`run_bench_spec`.
Specs that agree on a protocol cell's configuration share it through
the result cache, so one pytest run simulates each cell once.  Scale
and ensemble sizes are tunable via environment variables so the same
harness serves quick regression runs and full reproduction runs:

    REPRO_BENCH_SCALE        workload scale (default 0.4)
    REPRO_BENCH_OS_RUNS      OS-scheduler ensemble size (default 4)
    REPRO_BENCH_MAPPED_RUNS  repetitions per SM/HM mapping (default 2)
    REPRO_BENCH_WORKERS      process-pool size for spec cells (default 1)
    REPRO_BENCH_CACHE        result cache: unset/"1" = benchmarks/out/cache,
                             "0" = a fresh cache per pytest run, deleted at exit,
                             anything else = cache directory

Results are deterministic functions of the configuration, so the on-disk
cache makes a re-run with unchanged knobs nearly free; delete the cache
directory (or set REPRO_BENCH_CACHE=0) to force fresh simulation.

Rendered tables/figures are written to ``benchmarks/out/`` so a bench
run leaves reviewable artifacts behind.
"""

from __future__ import annotations

import atexit
import functools
import os
import pathlib
import shutil
import tempfile

import pytest

from repro.experiments.specs import SPEC_DIR, load_spec, run_spec

OUT_DIR = pathlib.Path(__file__).parent / "out"


@functools.lru_cache(maxsize=None)
def _run_cache() -> str:
    path = tempfile.mkdtemp(prefix="repro-bench-cache-")
    atexit.register(shutil.rmtree, path, True)
    return path


def bench_cache_dir() -> str:
    raw = os.environ.get("REPRO_BENCH_CACHE", "1")
    if raw == "0":
        return _run_cache()
    if raw == "1":
        return str(OUT_DIR / "cache")
    return raw


def spec_params() -> dict:
    """Runtime overrides from the bench environment (scale, ensembles)."""
    return {
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "0.4")),
        "os_runs": int(os.environ.get("REPRO_BENCH_OS_RUNS", "4")),
        "mapped_runs": int(os.environ.get("REPRO_BENCH_MAPPED_RUNS", "2")),
    }


def run_bench_spec(name: str, params: "dict | None" = None):
    """Execute ``benchmarks/specs/<name>.toml``, write its artifacts to
    ``benchmarks/out/`` and echo the text ones to the console."""
    spec = load_spec(SPEC_DIR / f"{name}.toml")
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    run = run_spec(spec, params=params, workers=workers,
                   cache_dir=bench_cache_dir(), out_dir=OUT_DIR)
    for artifact in sorted(run.artifacts):
        if not artifact.endswith(".svg"):
            print(f"\n===== {artifact} =====\n{run.artifacts[artifact]}\n")
    return run


def bench_spec(benchmark, name: str, params: "dict | None" = None):
    """:func:`run_bench_spec` timed by pytest-benchmark, in one round (a
    spec's grid is minutes of simulation when the cache is cold)."""
    return benchmark.pedantic(run_bench_spec, args=(name, params),
                              rounds=1, iterations=1)


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def save_artifact(out_dir: pathlib.Path, name: str, text: str) -> None:
    """Write one rendered table/figure and echo it to the console."""
    path = out_dir / name
    path.write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
