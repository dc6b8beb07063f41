"""Tests for the SetSystem substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.setsystem import SetSystem


class TestConstruction:
    def test_shape(self, tiny_system):
        assert tiny_system.m == 5
        assert tiny_system.n == 9
        assert len(tiny_system) == 5

    def test_infers_universe(self):
        system = SetSystem([{0, 5}, {2}])
        assert system.n == 6

    def test_explicit_universe_allows_isolated_elements(self):
        system = SetSystem([{0}], n=100)
        assert system.n == 100

    def test_rejects_too_small_universe(self):
        with pytest.raises(ValueError):
            SetSystem([{0, 10}], n=5)

    def test_rejects_negative_elements(self):
        with pytest.raises(ValueError):
            SetSystem([{-1, 2}])

    def test_duplicate_elements_deduplicated(self):
        system = SetSystem([[1, 1, 2, 2, 2]])
        assert system.set_size(0) == 2

    def test_empty_family(self):
        system = SetSystem([], n=10)
        assert system.m == 0
        assert system.coverage([]) == 0


class TestCoverage:
    def test_single_set(self, tiny_system):
        assert tiny_system.coverage([0]) == 4

    def test_overlapping_union(self, tiny_system):
        assert tiny_system.coverage([0, 1]) == 6  # {0..5}

    def test_disjoint_union(self, tiny_system):
        assert tiny_system.coverage([2, 4]) == 3

    def test_subset_adds_nothing(self, tiny_system):
        assert tiny_system.coverage([3]) == tiny_system.coverage([0, 3])

    def test_covered_elements(self, tiny_system):
        assert tiny_system.covered_elements([2, 4]) == {6, 7, 8}

    def test_duplicate_ids_idempotent(self, tiny_system):
        assert tiny_system.coverage([0, 0, 0]) == 4

    def test_total_size(self, tiny_system):
        assert tiny_system.total_size() == 4 + 3 + 2 + 5 + 1


class TestFrequencies:
    def test_element_frequencies(self, tiny_system):
        freq = tiny_system.element_frequencies()
        assert freq[3] == 3  # sets 0, 1, 3
        assert freq[8] == 1

    def test_common_elements(self, tiny_system):
        assert tiny_system.common_elements(3) == {3}
        assert 0 in tiny_system.common_elements(2)

    def test_common_elements_high_threshold_empty(self, tiny_system):
        assert tiny_system.common_elements(10) == set()


class TestConversions:
    def test_edges_roundtrip(self, tiny_system):
        edges = tiny_system.edges()
        rebuilt = SetSystem.from_edges(edges, n=tiny_system.n)
        assert rebuilt.m == tiny_system.m
        for j in range(tiny_system.m):
            assert rebuilt.set_contents(j) == tiny_system.set_contents(j)

    def test_edges_are_set_major(self, tiny_system):
        edges = tiny_system.edges()
        assert edges == sorted(edges)

    def test_from_edges_with_gaps(self):
        system = SetSystem.from_edges([(0, 1), (3, 2)], m=5)
        assert system.m == 5
        assert system.set_size(1) == 0
        assert system.set_size(3) == 1

    def test_from_edges_rejects_small_m(self):
        with pytest.raises(ValueError):
            SetSystem.from_edges([(5, 0)], m=3)

    def test_from_edges_rejects_negative_set(self):
        with pytest.raises(ValueError):
            SetSystem.from_edges([(-1, 0)])

    def test_from_bipartite_graph(self):
        system = SetSystem.from_bipartite_graph([[1, 2], [2, 3], []])
        assert system.m == 3
        assert system.coverage([0, 1]) == 3


def _assert_same_system(a, b):
    assert (a.m, a.n) == (b.m, b.n)
    assert [a.set_contents(j) for j in range(a.m)] == [
        b.set_contents(j) for j in range(b.m)
    ]


class TestFromArrays:
    """The array builder is ``from_edges`` on parallel columns."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "m,n", [(None, None), (12, None), (None, 40), (15, 50)]
    )
    def test_equals_from_edges(self, seed, m, n):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(0, 60))
        set_ids = rng.integers(0, 10, length)
        elements = rng.integers(0, 30, length)  # duplicates included
        edges = list(zip(set_ids.tolist(), elements.tolist()))
        _assert_same_system(
            SetSystem.from_arrays(set_ids, elements, m=m, n=n),
            SetSystem.from_edges(edges, m=m, n=n),
        )

    def test_roundtrip_and_gaps(self, tiny_system):
        set_ids, elements = np.asarray(tiny_system.edges()).T
        _assert_same_system(
            SetSystem.from_arrays(set_ids, elements, n=tiny_system.n),
            tiny_system,
        )
        gaps = SetSystem.from_arrays([0, 3], [1, 2], m=5)
        _assert_same_system(gaps, SetSystem.from_edges([(0, 1), (3, 2)], m=5))

    def test_empty(self):
        _assert_same_system(
            SetSystem.from_arrays([], []), SetSystem.from_edges([])
        )
        _assert_same_system(
            SetSystem.from_arrays([], [], m=3, n=4),
            SetSystem.from_edges([], m=3, n=4),
        )

    @pytest.mark.parametrize(
        "edges,kwargs",
        [
            ([(2, 0), (-1, 0), (-4, 1)], {}),  # negative set id
            ([(5, 0)], {"m": 3}),  # m too small
            ([(0, 2), (1, -3)], {}),  # negative element
            ([(0, 1), (0, 10)], {"n": 5}),  # n too small
            ([(-1, -1)], {"m": 0, "n": 0}),  # set id checked first
            ([(5, -1)], {"m": 2}),  # then m, before elements
            ([(0, -1)], {"n": 0}),  # then elements, before n
        ],
    )
    def test_same_errors_as_from_edges(self, edges, kwargs):
        with pytest.raises(ValueError) as expected:
            SetSystem.from_edges(edges, **kwargs)
        set_ids, elements = np.asarray(edges).T
        with pytest.raises(ValueError) as actual:
            SetSystem.from_arrays(set_ids, elements, **kwargs)
        assert str(actual.value) == str(expected.value)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="length"):
            SetSystem.from_arrays([0, 1], [0])


class TestRestriction:
    def test_restrict_elements(self, tiny_system):
        reduced = tiny_system.restricted(elements={0, 1, 2})
        assert reduced.coverage([0]) == 3
        assert reduced.coverage([2]) == 0
        assert reduced.n == tiny_system.n  # universe scale preserved

    def test_restrict_sets_renumbers(self, tiny_system):
        reduced = tiny_system.restricted(set_ids=[3, 4])
        assert reduced.m == 2
        assert reduced.set_contents(0) == tiny_system.set_contents(3)

    def test_restrict_both(self, tiny_system):
        reduced = tiny_system.restricted(elements={3, 4}, set_ids=[1])
        assert reduced.coverage([0]) == 2
