from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    Graph,
    GraphSpec,
    chromatic_number,
    color_with_cap,
    dsatur_coloring,
    find_k_coloring,
    is_proper_coloring,
    run_multipass,
    to_insertion_stream,
)
from streamcolor.errors import ArgumentError
from streamcolor.exact import _two_coloring, greedy_clique_lower_bound
from streamcolor.seeds import rng_for

from oracles import brute_chromatic, brute_k_colorable


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError, instead of hanging, when the body runs too long."""

    def fail(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def reference_k_coloring(n: int, edges, k: int) -> list[int] | None:
    """A k-coloring by a static-order bitmask backtracker, or None: the
    reference for the DSATUR-order search. Per component, vertices go in
    descending degree order, each allowed to open at most one new color.
    Exponential; small n only."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colors = [0] * n
    seen: set[int] = set()
    for root in range(n):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v] - seen:
                seen.add(w)
                stack.append(w)
        order = sorted(comp, key=lambda v: (-len(adj[v]), v))
        pos = {v: i for i, v in enumerate(order)}
        masks = [sum(1 << pos[w] for w in adj[v] if pos[w] < i) for i, v in enumerate(order)]
        m = len(order)
        assignment = [-1] * m
        max_used = [0] * (m + 1)
        next_try = [0] * m
        i = 0
        while i < m:
            blocked = 0
            for j in range(i):
                if (masks[i] >> j) & 1:
                    blocked |= 1 << assignment[j]
            limit = min(k, max_used[i] + 1)
            c = next_try[i]
            while c < limit and (blocked >> c) & 1:
                c += 1
            if c >= limit:
                next_try[i] = 0
                i -= 1
                if i < 0:
                    return None
                next_try[i] = assignment[i] + 1
                assignment[i] = -1
                continue
            assignment[i] = c
            next_try[i] = c
            max_used[i + 1] = max(max_used[i], c + 1)
            i += 1
            if i < m:
                next_try[i] = 0
        for v, c in zip(order, assignment):
            colors[v] = c
    return colors


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
        exact = color_with_cap(g)
        assert is_proper_coloring(g, exact) and exact.num_colors == chi
        for cap in range(1, 6):
            capped = color_with_cap(g, cap)
            if chi > cap:
                assert capped is None
            else:
                assert capped is not None and is_proper_coloring(g, capped)
                assert capped.num_colors == chi


class TestSolverAgreesWithStaticOrderReference:
    @given(st.integers(0, 24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, keep in zip(pairs, mask) if keep]
        g = Graph(n, edges)
        feasible = {k: reference_k_coloring(n, edges, k) is not None for k in range(1, 6)}
        chi = 0 if n == 0 else next((k for k in range(1, 6) if feasible[k]), 6)
        for cap in range(1, 6):
            expected = chi if chi <= cap else None
            assert chromatic_number(g, cap) == expected
            capped = color_with_cap(g, cap)
            assert (capped is None) == (expected is None)
            if capped is not None:
                assert is_proper_coloring(g, capped) and capped.num_colors == chi
            found = find_k_coloring(g, cap)
            assert (found is None) == (not feasible[cap])
            if found is not None:
                assert is_proper_coloring(g, found) and found.num_colors <= cap


class TestSearchFinishes:
    def test_multipass_round_that_hung_the_static_order_search(self):
        g = GraphSpec.parse("gnm:n=108,m=1663").build(rng_for(68, 0))
        stream = to_insertion_stream(g, "shuffled", seed=68)
        with time_limit(5):
            verdict = run_multipass(stream, 3, 5, seed=68, budget_multiplier=0.1348)
            if verdict.is_large:
                sub = verdict.evidence.subgraph
                assert sub.edges <= g.edges
                assert chromatic_number(sub, cap=3) is None

    def test_component_that_fails_is_not_retried_per_coloring_of_another(self):
        star = [(0, leaf) for leaf in range(1, 21)]
        k4 = [(a, b) for a in range(21, 25) for b in range(a + 1, 25)]
        g = Graph(25, star + k4)
        with time_limit(5):
            assert find_k_coloring(g, 3) is None
            assert chromatic_number(g) == 4


class TestHelpers:
    def test_color_exactly_uses_chi_colors(self, petersen):
        got = color_with_cap(petersen)
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
