"""Golden ``POST /map`` response bytes for a seeded corpus.

The corpus covers the matrix shapes the canonicalizer, the group-affinity
builder and the blossom solver treat differently: random floats, tie-heavy
small integers, all-equal weights, pair/ring/grid patterns, asymmetric
bodies with a non-zero diagonal (normalized by the shard), relabelled
copies, odd thread counts (padded merge rounds) and several topology
shapes.  Signed zeros are kept out: their keys changed on purpose when
``-0.0`` started to normalize to ``+0.0``.

``data/map_golden.json`` maps each case id to the exact response body.
It was written by the loop-based implementation that preceded the array
code; regenerating it from the current code defeats its purpose, so do so
only for a deliberate change of the response format::

    PYTHONPATH=src python -m tests.service.test_map_golden --write
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.service.app import MappingService, ServiceConfig
from repro.util.rng import as_rng

GOLDEN = Path(__file__).with_name("data") / "map_golden.json"

SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64)


def _symmetric(a: np.ndarray) -> np.ndarray:
    m = np.round((a + a.T) / 2.0, 6)
    np.fill_diagonal(m, 0.0)
    return m


def _patterns(n: int, rng: np.random.Generator) -> List[Tuple[str, np.ndarray]]:
    out = [
        ("random", _symmetric(rng.random((n, n)) * 1000.0)),
        ("ties", _symmetric(rng.integers(0, 3, (n, n)).astype(float))),
        ("equal", _symmetric(np.full((n, n), 7.0))),
    ]
    pair = np.array(
        [[0.0 if i == j else (100.0 if i // 2 == j // 2 else 1.0) for j in range(n)]
         for i in range(n)]
    )
    out.append(("pair", pair))
    ring = np.zeros((n, n))
    for i in range(n):
        ring[i, (i + 1) % n] = ring[(i + 1) % n, i] = 50.0
    np.fill_diagonal(ring, 0.0)
    out.append(("ring", ring))
    side = int(round(n ** 0.5))
    if side * side == n:
        grid = np.zeros((n, n))
        for i in range(n):
            r, c = divmod(i, side)
            if c + 1 < side:
                grid[i, i + 1] = grid[i + 1, i] = 40.0
            if r + 1 < side:
                grid[i, i + side] = grid[i + side, i] = 40.0
        out.append(("grid", grid))
    # Raw body the shard must normalize: asymmetric, non-zero diagonal.
    out.append(("raw", rng.integers(0, 9, (n, n)).astype(float)))
    return out


def _topologies(n: int) -> List[Optional[Dict[str, int]]]:
    tops: List[Optional[Dict[str, int]]] = [
        {"cores_per_l2": 2, "l2_per_chip": 2, "chips": max(1, -(-n // 4))},
        {"cores_per_l2": 4, "l2_per_chip": 2, "chips": max(1, -(-n // 8))},
    ]
    if n <= 8:
        tops.append(None)  # the default Harpertown shape
    return tops


def corpus() -> List[Tuple[str, bytes]]:
    """``(case id, request body)`` pairs, deterministic for the seed."""
    rng = as_rng(20120521)
    cases: List[Tuple[str, bytes]] = []
    for n in SIZES:
        for name, matrix in _patterns(n, rng):
            for t, topo in enumerate(_topologies(n)):
                doc: Dict[str, object] = {"matrix": matrix.tolist()}
                if topo is not None:
                    doc["topology"] = topo
                body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
                cases.append((f"n{n}-{name}-t{t}", body))
            if name in ("random", "ties"):
                p = rng.permutation(n)
                relabelled = matrix[np.ix_(p, p)]
                doc = {"matrix": relabelled.tolist(), "topology": _topologies(n)[0]}
                body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
                cases.append((f"n{n}-{name}-relabelled", body))
    return cases


def responses(cases: List[Tuple[str, bytes]]) -> Dict[str, str]:
    """Each case's ``/map`` status and body from one fresh service."""

    async def drive() -> Dict[str, str]:
        service = MappingService(ServiceConfig(workers=0))
        out = {}
        try:
            for case, body in cases:
                status, _headers, payload = await service.handle_map(body)
                out[case] = f"{status} {payload.decode('utf-8')}"
        finally:
            await service.aclose()
        return out

    return asyncio.run(drive())


def test_map_responses_match_golden_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = corpus()
    assert sorted(golden) == sorted(case for case, _ in cases)
    got = responses(cases)
    mismatched = [case for case, _ in cases if got[case] != golden[case]]
    assert not mismatched, f"{len(mismatched)} responses changed: {mismatched[:5]}"


def test_corpus_is_signed_zero_free():
    for case, body in corpus():
        assert b"-0.0" not in body, case


def test_corpus_covers_padding_and_relabelling():
    cases = [case for case, _ in corpus()]
    assert any(case.startswith(("n3-", "n5-", "n7-")) for case in cases)
    assert any(case.startswith("n6-") for case in cases)  # odd pair count
    assert any(case.endswith("-relabelled") for case in cases)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.service.test_map_golden --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(responses(corpus()), indent=0, sort_keys=True) + "\n",
        encoding="utf-8",
    )
