"""Tests for the paper's hierarchical matching mapper."""

import numpy as np
import pytest

from repro.machine.topology import Topology, harpertown, multi_level
from repro.mapping.hierarchical import group_threads, hierarchical_mapping
from repro.mapping.quality import mapping_cost
from repro.util.rng import as_rng


def block_matrix(blocks, n=8, strong=10.0, weak=0.0):
    """Matrix with `strong` communication inside each block of thread ids."""
    a = np.full((n, n), weak)
    np.fill_diagonal(a, 0)
    for block in blocks:
        for i in block:
            for j in block:
                if i != j:
                    a[i, j] = strong
    return a


class TestGroupThreads:
    def test_pairs_follow_strong_blocks(self):
        m = block_matrix([(0, 5), (1, 4), (2, 7), (3, 6)])
        groups = group_threads(m, [2])
        assert sorted(tuple(sorted(g)) for g in groups) == [
            (0, 5), (1, 4), (2, 7), (3, 6),
        ]

    def test_two_levels_pairs_of_pairs(self):
        # Strong pairs, plus medium affinity binding pairs into fours.
        m = block_matrix([(0, 1), (2, 3), (4, 5), (6, 7)], strong=100)
        m += block_matrix([(0, 1, 2, 3), (4, 5, 6, 7)], strong=10) / 10 * 3
        np.fill_diagonal(m, 0)
        groups = group_threads(m, [2, 4])
        assert sorted(tuple(sorted(g)) for g in groups) == [
            (0, 1, 2, 3), (4, 5, 6, 7),
        ]
        # Merge order preserves the pair structure inside each four.
        for g in groups:
            assert tuple(sorted(g[:2])) in {(0, 1), (2, 3), (4, 5), (6, 7)}

    def test_odd_thread_count_pads(self):
        m = block_matrix([(0, 1)], n=5)
        groups = group_threads(m, [2])
        flattened = sorted(t for g in groups for t in g)
        assert flattened == [0, 1, 2, 3, 4]
        assert [0, 1] in [sorted(g) for g in groups]

    def test_h_function_matches_paper_for_pairs(self):
        """Our generalized group affinity must equal the paper's
        H[(x,y),(z,k)] = M[x,z]+M[x,k]+M[y,z]+M[y,k] for pairs."""
        from repro.mapping.hierarchical import _affinity_matrix
        rng = as_rng(0)
        m = rng.random((8, 8))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        groups = [[0, 3], [5, 6], [1, 2], [4, 7]]
        h = _affinity_matrix(m, groups)
        for a, (x, y) in enumerate(groups):
            for b, (z, k) in enumerate(groups):
                expected = 0.0 if a == b else m[x, z] + m[x, k] + m[y, z] + m[y, k]
                assert h[a, b] == pytest.approx(expected)

    def test_h_pads_with_zero_affinity(self):
        """A padding slot (odd group count) communicates with nobody."""
        from repro.mapping.hierarchical import _affinity_matrix
        m = block_matrix([(0, 1)], n=3)
        h = _affinity_matrix(m, [[0], [1], [2], [None]])
        assert h[0, 1] == 10.0
        assert not h[3].any() and not h[:, 3].any()

    def test_invalid_sizes(self):
        m = block_matrix([(0, 1)])
        with pytest.raises(ValueError):
            group_threads(m, [3])   # not reachable by doubling
        with pytest.raises(ValueError):
            group_threads(m, [0])

    def test_matcher_injection(self):
        calls = []

        def spy_matcher(w):
            calls.append(w.shape)
            from repro.mapping.blossom import max_weight_matching
            return max_weight_matching(w)

        group_threads(block_matrix([(0, 1)]), [2], matcher=spy_matcher)
        assert calls == [(8, 8)]


class TestHierarchicalMapping:
    def test_neighbor_pattern_gets_optimal_cost(self):
        a = np.zeros((8, 8))
        for t in range(7):
            a[t, t + 1] = a[t + 1, t] = 10
        topo = harpertown()
        mapping = hierarchical_mapping(a, topo)
        from repro.mapping.baselines import brute_force_mapping
        optimal = brute_force_mapping(a, topo)
        dist = topo.distance_matrix()
        assert mapping_cost(a, mapping, dist) == pytest.approx(
            mapping_cost(a, optimal, dist)
        )

    def test_mapping_is_permutation(self):
        rng = as_rng(4)
        a = rng.random((8, 8))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0)
        mapping = hierarchical_mapping(a, harpertown())
        assert sorted(mapping) == list(range(8))

    def test_strong_pairs_share_l2(self):
        m = block_matrix([(0, 7), (1, 6), (2, 5), (3, 4)])
        topo = harpertown()
        mapping = hierarchical_mapping(m, topo)
        for a, b in [(0, 7), (1, 6), (2, 5), (3, 4)]:
            assert topo.l2_of_core(mapping[a]) == topo.l2_of_core(mapping[b])

    def test_pair_of_pairs_shares_chip(self):
        m = block_matrix([(0, 1), (2, 3), (4, 5), (6, 7)], strong=100)
        m[0, 2] = m[2, 0] = m[1, 3] = m[3, 1] = 30   # (01)+(23) affinity
        m[4, 6] = m[6, 4] = m[5, 7] = m[7, 5] = 30   # (45)+(67) affinity
        topo = harpertown()
        mapping = hierarchical_mapping(m, topo)
        for group in [(0, 1, 2, 3), (4, 5, 6, 7)]:
            chips = {topo.chip_of_core(mapping[t]) for t in group}
            assert len(chips) == 1

    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_mapping(np.zeros((9, 9)), harpertown())

    def test_fewer_threads_than_cores(self):
        m = block_matrix([(0, 1)], n=4)
        topo = harpertown()
        mapping = hierarchical_mapping(m, topo)
        assert len(mapping) == 4
        assert len(set(mapping)) == 4
        assert topo.l2_of_core(mapping[0]) == topo.l2_of_core(mapping[1])

    def test_deterministic(self):
        rng = as_rng(11)
        a = rng.random((8, 8))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0)
        assert hierarchical_mapping(a) == hierarchical_mapping(a)

    def test_flat_topology_identity_layout(self):
        # No shared levels: grouping degenerates, mapping is a permutation.
        topo = multi_level(1, 1, 1)
        m = np.zeros((1, 1))
        with pytest.raises(ValueError):
            # 1 thread is below the CommunicationMatrix minimum via arrays:
            # use 2 threads on a 2-core flat machine instead.
            hierarchical_mapping(np.zeros((2, 2)), topo)
