"""Spec goldens: every spec's rendered artifacts, byte for byte.

``data/spec_golden.json`` holds, per spec under ``benchmarks/specs/``,
the runtime params of a CI-sized run and what that run must produce:
text artifacts verbatim, SVGs by SHA-256, the sweep records of ablation
specs and the counter rows of the engine spec.  The hand-rolled bench
scripts (and the suite fixture they shared) wrote it before each was
ported to a spec, and the scalar engine wrote the engine rows, so a spec
that drifts from the code it replaced by one byte fails here.
Regenerating it from the specs defeats its purpose; do so only for a
deliberate change of a simulated result or a report format (a new spec
needs its entry, with its params, added by hand first)::

    PYTHONPATH=src python tests/experiments/test_spec_differential.py --write

Every spec renders from one shared on-disk result cache, which also
proves the memoization contract: identical configs produce identical
cache keys, so the protocol specs that share a grid simulate it once.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments.specs import SPEC_DIR, SpecRun, load_spec, run_spec

GOLDEN = Path(__file__).with_name("data") / "spec_golden.json"
PINNED = json.loads(GOLDEN.read_text())

#: Specs whose checks predate the others (the first six ports); every
#: other spec is checked by ``test_ported_spec_matches_golden``.
FIRST_PORTS = ("ablation_sampling", "engine_speedup", "ext_noise_variance",
               "fig4_sm_patterns", "fig6_exec_time", "table1_mechanisms")


def _run(name: str, cache_dir: str, out_dir: "Path | None" = None) -> SpecRun:
    return run_spec(load_spec(SPEC_DIR / f"{name}.toml"),
                    params=PINNED[name]["params"], cache_dir=cache_dir,
                    out_dir=out_dir)


def _pinned(run: SpecRun) -> dict:
    """What the golden file holds for one run (besides its params)."""
    doc = {"artifacts": {
        name: ("sha256:" + hashlib.sha256(text.encode()).hexdigest()
               if name.endswith(".svg") else text)
        for name, text in run.artifacts.items()
    }}
    if run.spec.pipeline == "ablation":
        doc["records"] = run.results
    if run.spec.pipeline == "engine":
        doc["rows"] = run.rows
    return doc


def _check(runs: dict, name: str) -> None:
    expected = {k: v for k, v in PINNED[name].items() if k != "params"}
    assert _pinned(runs[name]) == expected


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("spec-golden-cache"))


@pytest.fixture(scope="module")
def runs(cache_dir) -> dict:
    """Every pinned spec, run in name order into the shared cache."""
    return {name: _run(name, cache_dir) for name in sorted(PINNED)}


def test_every_spec_is_pinned():
    assert sorted(PINNED) == sorted(p.stem for p in SPEC_DIR.glob("*.toml"))


@pytest.mark.parametrize("name", sorted(set(PINNED) - set(FIRST_PORTS)))
def test_ported_spec_matches_golden(runs, name):
    _check(runs, name)


class TestProtocolSpecs:
    def test_fig4_bytes_match_legacy(self, runs):
        _check(runs, "fig4_sm_patterns")

    def test_fig6_bytes_match_legacy(self, runs):
        _check(runs, "fig6_exec_time")

    def test_shared_grid_is_simulated_once(self, runs):
        grid = runs["fig4_sm_patterns"].config
        shared = [r for r in runs.values()
                  if r.spec.pipeline == "protocol" and r.config == grid]
        assert len(shared) == 10  # fig4-9, table3-5 and the report
        assert sum(r.cache_misses for r in shared) == len(grid.benchmarks)
        assert sum(r.cache_hits for r in shared) == 9 * len(grid.benchmarks)

    def test_artifacts_written_with_trailing_newline(self, runs, cache_dir,
                                                     tmp_path):
        out = tmp_path / "out"
        run = _run("fig6_exec_time", cache_dir, out_dir=out)
        on_disk = (out / "fig6_exec_time.txt").read_text()
        assert on_disk == run.artifacts["fig6_exec_time.txt"] + "\n"


class TestStaticSpecs:
    def test_table1_bytes_match_legacy(self, runs):
        _check(runs, "table1_mechanisms")


class TestAblationSpec:
    def test_records_and_bytes_match_legacy(self, runs):
        _check(runs, "ablation_sampling")

    def test_rerun_is_fully_cached(self, runs, cache_dir):
        run = _run("ablation_sampling", cache_dir)
        assert run.cache_misses == 0
        assert run.cache_hits == len(run.spec.sweep["thresholds"])


class TestNoiseVarianceSpec:
    def test_bytes_match_legacy(self, runs):
        _check(runs, "ext_noise_variance")


class TestEngineSpec:
    def test_rows_match_scalar_reference(self, runs):
        _check(runs, "engine_speedup")
        assert runs["engine_speedup"].results["speedup"] > 0


def main(argv: list) -> int:
    """``--write``: re-render every pinned spec into the golden file."""
    if argv != ["--write"]:
        print(__doc__)
        return 2
    doc = {}
    with tempfile.TemporaryDirectory() as cache:
        for name in sorted(PINNED):
            doc[name] = {"params": PINNED[name]["params"],
                         **_pinned(_run(name, cache))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
