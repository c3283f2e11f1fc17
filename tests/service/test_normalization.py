"""Input normalization, the packed canonical-matrix cache and push checks.

* ``normalize_matrix`` is the one normalization in front of
  canonicalization: it symmetrizes, clears the diagonal and maps ``-0.0``
  to ``+0.0``, so a body and its signed-zero twin share one cache entry.
* The canonical-matrix cache behind ``/map/delta`` keeps only the strict
  upper triangle; ``/map/delta`` rebuilds the square matrix from it.
* ``POST /cache/push`` accepts only matrices that triangle storage keeps
  exactly: finite, non-negative without ``-0.0``, symmetric, zero diagonal.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.cluster.replica import ReplicaEntry, render_push
from repro.service.app import MappingService, ServiceConfig
from repro.service.canonical import (
    canonical_form,
    canonical_key,
    normalize_matrix,
    unpack_canonical,
)
from repro.util.rng import as_rng
from repro.util.validation import ValidationError

SPEC = (2, 2, 2)


def run(coro):
    return asyncio.run(coro)


def random_matrix(n: int = 8, seed: int = 3) -> np.ndarray:
    a = as_rng(seed).integers(1, 50, (n, n)).astype(float)
    m = a + a.T
    np.fill_diagonal(m, 0.0)
    return m


def body_for(matrix, chips: int = 2) -> bytes:
    doc = {
        "matrix": np.asarray(matrix).tolist(),
        "topology": {"cores_per_l2": 2, "l2_per_chip": 2, "chips": chips},
    }
    return json.dumps(doc).encode("utf-8")


async def map_all(bodies):
    service = MappingService(ServiceConfig(workers=0))
    try:
        out = []
        for body in bodies:
            status, headers, payload = await service.handle_map(body)
            out.append((status, headers.get("X-Repro-Cache"), json.loads(payload)))
        return service, out
    finally:
        await service.aclose()


class TestNormalizeMatrix:
    def test_matches_communication_matrix_except_for_zero_sign(self):
        raw = np.array([[5.0, -0.0, 2.0], [-0.0, 1.0, 4.0], [6.0, 0.0, 3.0]])
        m = normalize_matrix(raw)
        assert m.tolist() == [[0.0, 0.0, 4.0], [0.0, 0.0, 2.0], [4.0, 2.0, 0.0]]
        assert not np.signbit(m).any()

    @pytest.mark.parametrize("bad", [[[0.0, -1.0], [-1.0, 0.0]], [[0.0, np.nan], [1.0, 0.0]]])
    def test_rejects_what_validation_rejects(self, bad):
        with pytest.raises(ValidationError):
            normalize_matrix(np.array(bad))

    def test_signed_zero_twin_shares_one_cache_entry(self):
        m = random_matrix()
        m[1, 2] = m[2, 1] = 0.0
        twin = m.tolist()
        twin[1][2] = twin[2][1] = -0.0
        assert b"-0.0" in body_for(twin)
        _, out = run(map_all([body_for(twin), body_for(m)]))
        (_, first_cache, first), (_, second_cache, second) = out
        assert first["key"] == second["key"]
        assert (first_cache, second_cache) == ("miss", "solve")
        assert first["mapping"] == second["mapping"]


class TestPackedMatrixCache:
    def test_cache_keeps_the_strict_upper_triangle(self):
        m = random_matrix(n=16)
        service, [(status, _, doc)] = run(map_all([body_for(m, chips=4)]))
        assert status == 200
        packed, n, spec = service._matrix_cache.peek(doc["key"])
        assert (n, spec) == (16, (2, 2, 4))
        assert len(packed) == 8 * 16 * 15 // 2
        canon, _perm = canonical_form(normalize_matrix(m))
        assert unpack_canonical(packed, 16).tobytes() == canon.tobytes()

    def test_delta_sees_the_rebuilt_matrix(self):
        async def scenario():
            service = MappingService(ServiceConfig(workers=0))
            try:
                _, _, payload = await service.handle_map(body_for(random_matrix()))
                base = json.loads(payload)
                delta = {
                    "base_key": base["key"],
                    "perm": base["perm"],
                    "updates": [],
                    "current_mapping": base["mapping"],
                }
                return base, await service.handle_delta(json.dumps(delta).encode())
            finally:
                await service.aclose()

        base, (status, _headers, payload) = run(scenario())
        assert status == 200
        # No updates and no decay: the rebuilt matrix re-keys identically.
        assert json.loads(payload)["key"] == base["key"]


def push_body(canon: np.ndarray) -> bytes:
    """A push of ``canon`` under its own key, so only the shape check can fail."""
    n = canon.shape[0]
    entry = ReplicaEntry(
        key=canonical_key(canon, SPEC),
        canon_hex=np.ascontiguousarray(canon, dtype=np.float64).tobytes().hex(),
        n=n,
        spec=SPEC,
        assignment=tuple(range(n)),
    )
    return render_push([entry])


async def push(body: bytes):
    service = MappingService(ServiceConfig(workers=0))
    try:
        return await service.handle_cache_push(body)
    finally:
        await service.aclose()


class TestCachePushValidation:
    def canonical(self) -> np.ndarray:
        canon, _ = canonical_form(random_matrix())
        return canon

    def test_accepts_a_canonical_matrix(self):
        status, _, payload = run(push(push_body(self.canonical())))
        assert status == 200
        assert json.loads(payload) == {"applied": 1, "duplicate": 0}

    @pytest.mark.parametrize(
        "corrupt",
        ["asymmetric", "diagonal", "negative_zero", "negative", "infinite", "nan"],
    )
    def test_rejects_a_matrix_triangle_storage_would_change(self, corrupt):
        canon = self.canonical().copy()
        if corrupt == "asymmetric":
            canon[0, 1] += 1.0
        elif corrupt == "diagonal":
            canon[3, 3] = 2.0
        elif corrupt == "negative_zero":
            canon[2, 5] = canon[5, 2] = -0.0
        elif corrupt == "negative":
            canon[2, 5] = canon[5, 2] = -4.0
        elif corrupt == "infinite":
            canon[2, 5] = canon[5, 2] = np.inf
        else:
            canon[2, 5] = canon[5, 2] = np.nan
        status, _, payload = run(push(push_body(canon)))
        assert status == 400
        assert json.loads(payload)["error"]["type"] == "InvalidReplication"
