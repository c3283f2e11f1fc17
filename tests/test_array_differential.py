"""Identity contract: the array code on the ``/map`` miss path equals its loops.

Canonicalization, the merge-round affinity matrix H, the blossom matcher
and the locality report were rewritten from per-element Python loops to
array code.  The loop versions live on in ``tests/reference``; every test
here requires bit-for-bit equal results from both:

* identical ``(canonical bytes, perm)``;
* bitwise-equal H for every merge round, padded rounds included;
* identical pair lists in both ``max_cardinality`` modes;
* bitwise-equal locality fractions.

Inputs are drawn for n from 1 to 64 under the derandomized Hypothesis
``ci`` profile: tie-heavy integer weights from {0, 1, 2}, all-equal
weights, pair/ring/grid patterns and random floats.  Tie-heavy inputs
matter most: they are where a change of scan or sort order would show,
and the non-vacuity test proves the corpus contains such inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.mapping.hierarchical as hierarchical
from repro.machine.topology import Topology
from repro.mapping import blossom
from repro.mapping.blossom import max_weight_matching
from repro.mapping.quality import communication_locality
from repro.service.canonical import canonical_form
from repro.util.rng import as_rng
from tests.reference import blossom as ref_blossom
from tests.reference import canonical as ref_canonical
from tests.reference import hierarchical as ref_hierarchical
from tests.reference import quality as ref_quality

KINDS = ("ties", "equal", "pair", "ring", "grid", "random")


def make_matrix(kind: str, n: int, seed: int) -> np.ndarray:
    """A symmetric zero-diagonal matrix of one corpus kind."""
    rng = as_rng(seed)
    if kind == "ties":
        a = rng.integers(0, 3, (n, n)).astype(float)
        m = np.triu(a, 1)
        m = m + m.T
    elif kind == "equal":
        m = np.full((n, n), 7.0)
    elif kind == "pair":
        idx = np.arange(n)
        m = np.where(idx[:, None] // 2 == idx // 2, 100.0, 1.0)
    elif kind == "ring":
        m = np.zeros((n, n))
        for i in range(n):
            m[i, (i + 1) % n] = m[(i + 1) % n, i] = 50.0
    elif kind == "grid":
        side = max(1, int(np.ceil(np.sqrt(n))))
        m = np.zeros((n, n))
        for i in range(n):
            r, c = divmod(i, side)
            if c + 1 < side and i + 1 < n:
                m[i, i + 1] = m[i + 1, i] = 40.0
            if i + side < n:
                m[i, i + side] = m[i + side, i] = 40.0
    else:
        a = rng.random((n, n)) * 1000.0
        m = (a + a.T) / 2.0
    m = np.array(m, dtype=float)
    np.fill_diagonal(m, 0.0)
    return m


matrices = st.builds(
    make_matrix,
    st.sampled_from(KINDS),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def harpertown_for(n: int) -> Topology:
    return Topology(cores_per_l2=2, l2_per_chip=2, chips=max(1, -(-n // 4)))


# -- canonicalization -----------------------------------------------------------


def assert_same_canonical(m: np.ndarray) -> None:
    canon, perm = canonical_form(m)
    ref_canon, ref_perm = ref_canonical.canonical_form(m)
    assert perm == ref_perm
    assert canon.tobytes() == ref_canon.tobytes()


@given(matrices)
def test_canonical_form_matches_loops(m):
    assert_same_canonical(m)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 16, 33, 64])
def test_canonical_form_matches_loops_per_kind(kind, n):
    assert_same_canonical(make_matrix(kind, n, seed=n))


def test_canonical_form_matches_loops_on_raw_inputs():
    # canonical_form itself takes any square array; the service only
    # hands it normalized ones, but the contract holds regardless.
    rng = as_rng(5)
    for n in (2, 5, 9, 16):
        assert_same_canonical(rng.integers(0, 3, (n, n)).astype(float))
        signed = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
        assert_same_canonical(signed + rng.integers(0, 2, (n, n)))


# -- merge-round affinity H -----------------------------------------------------


def checked_rounds(run) -> list:
    """Call ``run()``, requiring every merge round's H to equal the loop H.

    Returns the groups of each round.
    """
    seen = []
    builder = hierarchical._affinity_matrix

    def checked(mm, work):
        h = builder(mm, work)
        assert h.tobytes() == ref_hierarchical.affinity_matrix(mm, work).tobytes()
        seen.append(work)
        return h

    hierarchical._affinity_matrix = checked
    try:
        run()
    finally:
        hierarchical._affinity_matrix = builder
    return seen


@given(matrices)
def test_affinity_matrix_matches_loops_every_round(m):
    n = m.shape[0]
    if n >= 2:
        checked_rounds(lambda: hierarchical.hierarchical_mapping(m, harpertown_for(n)))


@pytest.mark.parametrize("n", [6, 10, 14, 22])
@pytest.mark.parametrize("kind", ["ties", "random"])
def test_affinity_matrix_matches_loops_on_padded_rounds(n, kind):
    """Odd group counts append a padding group; its H row is zeros."""
    m = make_matrix(kind, n, seed=n)
    rounds = checked_rounds(lambda: hierarchical.hierarchical_mapping(m, harpertown_for(n)))
    assert any([None] in work for work in rounds)


def test_affinity_matrix_matches_loops_on_wide_groups():
    """Blocks past numpy's 128-element pairwise-summation block."""
    rounds = []
    for n in (47, 64):
        m = make_matrix("random", n, seed=n)
        rounds += checked_rounds(lambda: hierarchical.group_threads(m, [2, 4, 8, 16, 32]))
    assert max(len(group) for work in rounds for group in work) >= 16


# -- blossom matching -----------------------------------------------------------


def assert_same_matching(m: np.ndarray) -> None:
    for max_cardinality in (True, False):
        got = max_weight_matching(m, max_cardinality=max_cardinality)
        want = ref_blossom.max_weight_matching(m, max_cardinality=max_cardinality)
        assert got == want
        assert all(type(v) is int for pair in got for v in pair)


@given(matrices)
def test_matching_matches_loops(m):
    assert_same_matching(m)


@pytest.mark.parametrize("n", range(1, 65))
def test_matching_matches_loops_tie_heavy(n):
    assert_same_matching(make_matrix("ties", n, seed=1000 + n))


@pytest.mark.parametrize("kind", ["equal", "pair", "ring", "grid"])
@pytest.mark.parametrize("n", [7, 16, 33, 64])
def test_matching_matches_loops_patterns(kind, n):
    assert_same_matching(make_matrix(kind, n, seed=n))


@pytest.mark.parametrize("block_edges", [0, 10**9])
@pytest.mark.parametrize("n", [5, 8, 13, 24, 40])
def test_matching_matches_loops_in_either_scan_mode(monkeypatch, block_edges, n):
    """Block scans everywhere, or one-row scans everywhere: same pairs."""
    monkeypatch.setattr(blossom, "_BLOCK_EDGES", block_edges)
    for seed in range(4):
        assert_same_matching(make_matrix("ties", n, seed=seed))


def test_block_relax_keeps_the_first_row_among_equal_slacks():
    """Two queued rows of one S-blossom offer equally slack edges: the row
    scanned first (popped first) must win, as it does edge by edge."""
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 5.0  # every other edge has slack 10
    solver = blossom._MatchingSolver(w, True, False)
    solver.inblossom = [4, 4, 2, 3]  # 0 and 1 inside S-blossom 4
    solver.blossomparent[0] = solver.blossomparent[1] = 4
    solver.blossombase[4] = 0
    solver.label[4] = solver.label[2] = solver.label[3] = 1
    rows = np.array([1, 0])  # vertex 1 is scanned first
    inblossom = np.array(solver.inblossom)
    label = np.array(solver.label)
    solver.relax(
        rows,
        solver.slacks[rows],
        inblossom != inblossom[rows, None],
        inblossom,
        label[inblossom],
        label[:4] == 0,
    )
    assert solver.bestedge[4] == solver.edge_id[1, 2]


def test_matching_matches_loops_with_negative_weights():
    rng = as_rng(11)
    for n in (5, 12, 40):
        a = rng.integers(-5, 6, (n, n)).astype(float)
        assert_same_matching(a + a.T)


def test_corpus_can_see_tie_order():
    """Non-vacuity: reversing the neighbour scan changes some matchings.

    If no corpus input were sensitive to scan order, a rewrite that broke
    ties differently would still pass every test above.
    """
    sensitive = 0
    for n in range(4, 65, 4):
        m = make_matrix("ties", n, seed=1000 + n)
        forward = ref_blossom.max_weight_matching(m)
        backward = ref_blossom.max_weight_matching(m, reverse_scan=True)
        assert sum(m[i, j] for i, j in forward) == sum(m[i, j] for i, j in backward)
        sensitive += forward != backward
    assert sensitive >= 3


# -- locality report ------------------------------------------------------------


@given(matrices, st.integers(min_value=0, max_value=2**32 - 1))
def test_locality_matches_loops(m, seed):
    n = m.shape[0]
    topology = harpertown_for(n)
    mapping = as_rng(seed).permutation(topology.num_cores)[:n].tolist()
    got = communication_locality(m, mapping, topology)
    want = ref_quality.communication_locality(m, mapping, topology)
    assert list(got) == list(want)
    assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]
