"""The spec corpus under ``benchmarks/specs/``, checked without simulating.

Every spec loads; every report and ablation variant the runner registers
serves some spec; and the artifacts the specs write — as pinned by the
spec goldens, which render every spec — are distinct files that exist
under ``benchmarks/out/``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.ablations import ABLATION_AXES
from repro.experiments.specs import REPORTS, SPEC_DIR, load_spec

OUT_DIR = SPEC_DIR.parent / "out"
GOLDEN = Path(__file__).with_name("data") / "spec_golden.json"
PATHS = sorted(SPEC_DIR.glob("*.toml"))


def _specs():
    return [load_spec(path) for path in PATHS]


def _artifacts() -> dict:
    return {name: sorted(entry["artifacts"])
            for name, entry in json.loads(GOLDEN.read_text()).items()}


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_spec_loads_under_its_file_name(path):
    assert load_spec(path).name == path.stem


def test_every_report_serves_a_spec():
    used = {report for spec in _specs() for report in spec.reports}
    assert sorted(set(REPORTS) - used) == []


def test_every_ablation_variant_serves_a_spec():
    used = {spec.variant for spec in _specs() if spec.pipeline == "ablation"}
    assert sorted(set(ABLATION_AXES) - used) == []


def test_no_two_specs_write_one_artifact():
    written = Counter(name for names in _artifacts().values() for name in names)
    assert sorted(name for name, n in written.items() if n > 1) == []


def test_every_artifact_is_tracked_under_benchmarks_out():
    missing = sorted(name for names in _artifacts().values() for name in names
                     if not (OUT_DIR / name).is_file())
    assert missing == []
