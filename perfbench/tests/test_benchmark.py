"""Fast checks of the benchmark's own pieces.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stream  # noqa: E402


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    # protocol-sp stays runnable (the self-test uses it) but is not listed.
    assert [w["name"] for w in doc["workloads"]] == [
        w for w in run.WORKLOADS if w != "protocol-sp"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == [tuple(m) for m in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m) for m in layers.PER_LAYER]


@pytest.mark.parametrize("block", [stream.SERVE_MIX, stream.ROUTE_WARM])
def test_stream_is_a_function_of_the_seed(block):
    def take(seed, conn, count=80):
        it = iter(stream.Stream(seed, conn, block, (8, 16, 32, 64)))
        return [next(it) for _ in range(count)]

    a, b = take(5, 0), take(5, 0)
    assert [r.wire for r in a] == [r.wire for r in b]
    assert [r.wire for r in a] != [r.wire for r in take(6, 0)]
    assert [r.wire for r in a] != [r.wire for r in take(5, 1)]


def test_stream_classes_follow_the_block():
    gen = stream.Stream(1, 0, stream.SERVE_MIX, (8, 16, 32, 64))
    it = iter(gen)
    prologue = [next(it) for _ in range(4)]
    assert [r.kind for r in prologue] == ["miss"] * 4
    reqs = [next(it) for _ in range(10 * len(stream.SERVE_MIX))]
    for kind in ("body", "solve", "miss"):
        expected = 10 * sum(1 for k, _n in stream.SERVE_MIX if k == kind)
        assert sum(1 for r in reqs if r.kind == kind) == expected
    seen = set()
    for r in prologue + reqs:
        # Only a body hit may repeat bytes; anything else must be new.
        assert (r.kind == "body") == (r.wire in seen)
        seen.add(r.wire)
    for r in reqs:
        if r.kind == "solve":
            base = gen.bases[r.base]
            body = r.wire.split(b"\r\n\r\n", 1)[1]
            sent = np.array(json.loads(body)["matrix"])
            assert np.array_equal(sent, base[np.ix_(r.perm, r.perm)])


def test_self_time_subtracts_children():
    rows = [
        (2, 1, "child", 10, 30, None),
        (3, 1, "child", 40, 45, None),
        (1, 0, "parent", 0, 100, None),
    ]
    out = {sid: row for sid, row in zip((2, 3, 1), spans.self_times(rows))}
    assert out[1] == ("parent", 100, None, 75)
    assert out[2][3] == 20 and out[3][3] == 5


def test_wrappers_time_calls_and_come_off_again():
    class Target:
        def work(self, x):
            return x * 2

    before = Target.__dict__["work"]
    spans.wrap(Target, "work", "t.work", attr_of=lambda _self, x: x)
    assert Target().work(21) == 42
    assert spans.RECORDER.spans[-1][2] == "t.work"
    assert spans.RECORDER.spans[-1][5] == 21
    spans.unpatch()
    assert Target.__dict__["work"] is before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol-sp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
