from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    Graph,
    chromatic_number,
    color_exactly,
    dsatur_coloring,
    find_k_coloring,
    is_proper_coloring,
)
from streamcolor.errors import ArgumentError
from streamcolor.exact import _two_coloring, color_with_cap, greedy_clique_lower_bound

from oracles import brute_chromatic, brute_k_colorable


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestChromaticNumber:
    def test_empty_vertexless(self):
        assert chromatic_number(Graph(0)) == 0

    def test_edgeless(self):
        assert chromatic_number(Graph(5)) == 1

    def test_k4(self, k4):
        assert chromatic_number(k4) == 4

    def test_c5_matches_oracle(self, c5):
        expected = brute_chromatic(5, sorted(c5.edges))
        assert expected == 3  # frozen
        assert chromatic_number(c5) == expected

    def test_petersen_matches_oracle(self, petersen):
        assert brute_chromatic(10, sorted(petersen.edges)) == 3
        assert chromatic_number(petersen) == 3

    def test_cap_hit_returns_none(self, c5):
        assert chromatic_number(c5, cap=2) is None

    def test_cap_not_hit(self, k4):
        assert chromatic_number(k4, cap=4) == 4
        assert chromatic_number(k4, cap=10) == 4

    def test_cap_validated(self, c5):
        with pytest.raises(ArgumentError):
            chromatic_number(c5, cap=0)

    def test_disconnected_takes_max(self):
        # a triangle plus an isolated edge
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (4, 5)])
        assert chromatic_number(g) == 3

    @given(st.integers(2, 30))
    @settings(max_examples=15, deadline=None)
    def test_cliques(self, n):
        assert chromatic_number(complete_graph(n)) == n


class TestFindKColoring:
    def test_k3_three_colors(self):
        g = complete_graph(3)
        got = find_k_coloring(g, 3)
        assert got is not None and is_proper_coloring(g, got)

    def test_k3_two_colors_impossible(self):
        assert find_k_coloring(complete_graph(3), 2) is None

    def test_petersen_three_colorable(self, petersen):
        assert brute_k_colorable(10, sorted(petersen.edges), 3)  # oracle
        got = find_k_coloring(petersen, 3)
        assert got is not None
        assert is_proper_coloring(petersen, got)
        assert got.num_colors <= 3

    def test_bipartite_fast_path(self):
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (2, 5), (1, 5)])
        got = find_k_coloring(g, 2)
        assert got is not None and is_proper_coloring(g, got)

    def test_k_must_be_positive(self, c5):
        with pytest.raises(ArgumentError):
            find_k_coloring(c5, 0)

    def test_canonical_output(self, petersen):
        got = find_k_coloring(petersen, 3)
        seen = []
        for c in got.colors.tolist():
            if c not in seen:
                seen.append(c)
        assert seen == list(range(got.num_colors))


class TestSolverAgreesWithOracle:
    @given(st.integers(0, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_small_graphs(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, keep in zip(pairs, mask) if keep]
        g = Graph(n, edges)
        chi = chromatic_number(g)
        assert chi == brute_chromatic(n, edges)
        if chi >= 1:
            got = find_k_coloring(g, chi)
            assert got is not None and is_proper_coloring(g, got)
            assert got.num_colors <= chi
        if chi >= 2:
            assert find_k_coloring(g, chi - 1) is None
        for cap in (1, 2, 3):
            capped = color_with_cap(g, cap)
            if chi > cap:
                assert capped is None
            else:
                assert capped is not None and is_proper_coloring(g, capped)
                assert capped.num_colors == chi


class TestHelpers:
    def test_color_exactly_uses_chi_colors(self, petersen):
        got = color_exactly(petersen)
        assert got.num_colors == 3
        assert is_proper_coloring(petersen, got)

    def test_dsatur_is_proper(self, petersen):
        got = dsatur_coloring(petersen)
        assert is_proper_coloring(petersen, got)

    def test_clique_bound_is_a_clique(self, petersen):
        clique = greedy_clique_lower_bound(petersen)
        assert len(clique) >= 2
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert petersen.has_edge(u, v)

    def test_color_with_cap_rejects_cap_below_one(self, c5):
        with pytest.raises(ArgumentError):
            color_with_cap(c5, 0)

    def test_two_coloring_roots_each_component_at_its_smallest_vertex(self):
        # components {1, 2, 3} (path 2-3-1) and {4, 5, 6} (star at 6)
        g = Graph(7, [(3, 2), (3, 1), (6, 5), (6, 4)])
        colors = _two_coloring(g)
        assert colors[1] == 0 and colors[4] == 0
        assert colors.tolist() == [0, 0, 0, 1, 0, 0, 1]
