"""Tests for the pattern-drift metric."""

import pytest

from repro.core.commmatrix import CommunicationMatrix
from repro.core.history import pattern_drift


def matrix_with(pairs, n=4):
    m = CommunicationMatrix(n)
    for i, j, amt in pairs:
        m.increment(i, j, amt)
    return m


class TestPatternDrift:
    def test_identical_structure_zero_drift(self):
        a = matrix_with([(0, 1, 10), (2, 3, 5)])
        b = matrix_with([(0, 1, 20), (2, 3, 10)])  # scaled copy
        assert pattern_drift(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_inverted_structure_high_drift(self):
        a = matrix_with([(0, 1, 10)])
        b = matrix_with([(0, 2, 10), (0, 3, 10), (1, 2, 10), (1, 3, 10),
                         (2, 3, 10)])
        assert pattern_drift(a, b) > 1.0

    def test_empty_vs_empty(self):
        assert pattern_drift(CommunicationMatrix(4), CommunicationMatrix(4)) == 0.0

    def test_empty_vs_populated_is_change(self):
        assert pattern_drift(CommunicationMatrix(4), matrix_with([(0, 1, 5)])) == 1.0
