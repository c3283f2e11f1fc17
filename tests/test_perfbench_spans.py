"""The repository benchmark's protocol wrappers still find every layer.

``perfbench/spans.py`` times each simulator layer by replacing a method
or module function from outside.  Its ``_patch`` reads the class's own
``__dict__``, so deleting or moving a wrapped method makes a traced
benchmark run raise; and a refactor that stops calling a wrapped method
leaves its layer silently at zero.  This test runs one small protocol
under the wrappers and requires spans for every layer, then restores
the originals.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.tlb.mmu import MMU

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

LAYERS = (
    "workloads.next",
    "machine.system_build",
    "machine.sim",
    "tlb.translate",
    "core.sm_detector.hook",
    "core.hm_detector.poll",
    "core.oracle",
    "mem.access_batch",
    "mapping.solve",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_protocol_wrappers_time_every_layer(monkeypatch):
    # The benchmark runs the default engine; ``make test-scalar`` forces
    # the scalar one, which never calls ``access_batch``.
    monkeypatch.setenv("REPRO_SIM_ENGINE", "batched")
    spans = load_spans()
    translate = MMU.__dict__["translate_vpn"]
    keep = spans.patch_count()
    spans.install_protocol_wrappers()
    try:
        assert MMU.__dict__["translate_vpn"] is not translate
        runner = ExperimentRunner(ExperimentConfig(
            benchmarks=("is",), scale=0.1, os_runs=1, mapped_runs=1))
        runner.run_benchmark("is")
    finally:
        spans.unpatch(keep)
    assert MMU.__dict__["translate_vpn"] is translate
    seen = Counter(span[2] for span in spans.RECORDER.spans)
    assert {layer: seen[layer] for layer in LAYERS if not seen[layer]} == {}
