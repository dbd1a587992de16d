from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import networkx as nx
import numpy as np
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
from streamcolor import exact
from streamcolor.errors import ArgumentError
from streamcolor.exact import (
    _compact,
    _components,
    _search,
    _two_coloring,
    greedy_clique_lower_bound,
)
from streamcolor.graph import Coloring, missing_clique_pair
from streamcolor.seeds import rng_for

from oracles import (
    bfs_two_coloring,
    brute_chromatic,
    brute_k_colorable,
    dict_adjacency,
    peak_bytes,
    reference_canonical,
    reference_components,
)


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


# ---------------------------------------------------------------------------
# dict-of-sets references: the solver as it was before it moved onto the CSR
# ---------------------------------------------------------------------------


def reference_clique(g: Graph) -> list[int]:
    """Greedy clique; neighbours in descending degree, ties by ascending id."""
    adj = dict_adjacency(g)
    best: list[int] = []
    for v in sorted(adj, key=lambda v: -len(adj[v])):
        if len(adj[v]) + 1 <= len(best):
            break
        clique = [v]
        for u in sorted(adj[v], key=lambda u: (-len(adj[u]), u)):
            if all(u in adj[c] for c in clique):
                clique.append(u)
        if len(clique) > len(best):
            best = clique
    return best


def reference_dsatur(g: Graph) -> Coloring:
    adj = dict_adjacency(g)
    colors = np.zeros(g.n, dtype=np.int64)
    sat: dict[int, set[int]] = {v: set() for v in adj}
    uncolored = set(adj)
    while uncolored:
        v = max(uncolored, key=lambda u: (len(sat[u]), len(adj[u]), -u))
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        uncolored.remove(v)
        for w in adj[v]:
            if w in uncolored:
                sat[w].add(c)
    return Coloring.from_array(colors)


def reference_search(g: Graph, k: int) -> Coloring | None:
    """Per-component backtracking in DSATUR order over dicts."""
    adj = dict_adjacency(g)
    colors = [0] * g.n
    counts = {v: [0] * k for v in adj}
    sat = dict.fromkeys(adj, 0)
    for comp in reference_components(adj):
        uncolored = set(comp)
        opened = 0
        trail: list[tuple[int, list[int], int]] = []
        while uncolored:
            v = max(uncolored, key=lambda u: (sat[u], len(adj[u]), -u))
            tries = [c for c in range(min(k, opened + 1) - 1, -1, -1) if not counts[v][c]]
            while not tries:
                if not trail:
                    return None
                v, tries, opened = trail.pop()
                c = colors[v]
                for w in adj[v]:
                    counts[w][c] -= 1
                    if not counts[w][c]:
                        sat[w] -= 1
                uncolored.add(v)
            c = tries.pop()
            colors[v] = c
            for w in adj[v]:
                if not counts[w][c]:
                    sat[w] += 1
                counts[w][c] += 1
            uncolored.remove(v)
            trail.append((v, tries, opened))
            opened = max(opened, c + 1)
    return Coloring.from_array(colors)


def reference_find_k_coloring(g: Graph, k: int) -> Coloring | None:
    if g.num_edges == 0:
        return Coloring.from_array(np.zeros(g.n, dtype=np.int64))
    if k == 1:
        return None
    if k == 2:
        two = bfs_two_coloring(g)
        return None if two is None else Coloring.from_array(two)
    greedy = reference_dsatur(g)
    return greedy if greedy.num_colors <= k else reference_search(g, k)


def reference_color_with_cap(g: Graph, cap: int | None) -> Coloring | None:
    small = reference_find_k_coloring(g, 2 if cap is None else min(cap, 2))
    if small is not None or (cap is not None and cap <= 2):
        return small
    lb = max(3, len(reference_clique(g)))
    greedy = reference_dsatur(g)
    hi = greedy.num_colors if cap is None else min(greedy.num_colors, cap + 1)
    for k in range(lb, hi):
        found = reference_search(g, k)
        if found is not None:
            return found
    return greedy if cap is None or greedy.num_colors <= cap else None


def same_coloring(got: Coloring | None, want: Coloring | None) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return (got.num_colors, got.colors.tobytes()) == (want.num_colors, want.colors.tobytes())


@st.composite
def small_graphs(draw, max_n: int = 40) -> Graph:
    """Random graphs of up to `max_n` vertices, half of them bipartite."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.35]))
    bipartite = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < density
    if bipartite:
        side = rng.integers(0, 2, n)
        keep &= side[u] != side[v]
    # isolated low ids: the CSR's local ids must not coincide with vertex ids
    offset = draw(st.integers(0, 3))
    return Graph(n + offset, np.stack((u[keep], v[keep]), axis=1) + offset)


class TestChromaticNumber:
    def test_empty_vertexless(self):
        assert chromatic_number(Graph(0)) == 0

    def test_edgeless(self):
        assert chromatic_number(Graph(5)) == 1

    def test_k4(self, k4):
        assert chromatic_number(k4) == 4

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_edgeless_coloring_needs_no_sort(self, monkeypatch, n):
        g, want = Graph(n), Coloring.from_array(np.zeros(n, dtype=np.int64))

        def no_unique(*args, **kwargs):
            raise AssertionError("an edgeless graph's coloring is canonical as built")

        monkeypatch.setattr(np, "unique", no_unique)
        for got in (find_k_coloring(g, 1), find_k_coloring(g, 3), color_with_cap(g, 2), color_with_cap(g)):
            assert got == want and got.num_colors == want.num_colors
            assert got.colors.dtype == np.int64

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
            if verdict.label == "large":
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
                assert (min(u, v), max(u, v)) in petersen.edges

    def test_color_with_cap_rejects_cap_below_one(self, c5):
        with pytest.raises(ArgumentError):
            color_with_cap(c5, 0)

    def test_two_coloring_roots_each_component_at_its_smallest_vertex(self):
        # components {1, 2, 3} (path 2-3-1) and {4, 5, 6} (star at 6)
        g = Graph(7, [(3, 2), (3, 1), (6, 5), (6, 4)])
        colors = _two_coloring(g)
        assert colors[1] == 0 and colors[4] == 0
        assert colors.tolist() == [0, 0, 0, 1, 0, 0, 1]


class TestAgreesWithDictReferences:
    """The CSR solver against the dict-of-sets references, byte for byte."""

    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_colorings_and_clique(self, g):
        assert same_coloring(dsatur_coloring(g), reference_dsatur(g))
        two, expected = _two_coloring(g), bfs_two_coloring(g)
        assert (two is None) == (expected is None)
        if two is not None:
            assert two.tobytes() == expected.tobytes()
        assert greedy_clique_lower_bound(g) == reference_clique(g)
        for k in range(1, 6):
            assert same_coloring(find_k_coloring(g, k), reference_find_k_coloring(g, k))
        for cap in (None, 1, 2, 3, 4, 5):
            assert same_coloring(color_with_cap(g, cap), reference_color_with_cap(g, cap))

    @given(small_graphs(max_n=24), st.integers(3, 5))
    @settings(max_examples=60, deadline=None)
    def test_search(self, g, k):
        if g.num_edges:
            assert same_coloring(_search(g, k)[0], reference_search(g, k))
        assert same_coloring(_search(g, None)[0], reference_dsatur(g))


# ---------------------------------------------------------------------------
# the CSR 2-coloring: min-label hooking over the bipartite double cover, as it
# was before it read the edge array and hooked parities on the graph itself
# ---------------------------------------------------------------------------


def reference_two_coloring(g: Graph) -> np.ndarray | None:
    """The CSR double-cover 2-coloring: local ids from `Graph.csr`, and
    min-label hooking over the 2k-node double cover, by allocating rounds."""
    verts, indptr, indices = g.csr()
    k = len(verts)
    src = np.repeat(np.arange(k), np.diff(indptr))
    once = src < indices
    u, v = src[once], indices[once]
    x, y = np.concatenate((u, u + k)), np.concatenate((v + k, v))
    lab = np.arange(2 * k)
    while True:
        new = lab.copy()
        a, b = lab[x], lab[y]
        np.minimum.at(new, np.maximum(a, b), np.minimum(a, b))
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    if (lab[:k] == lab[k:]).any():
        return None
    colors = np.zeros(g.n, dtype=np.int64)
    colors[verts] = lab[:k] > lab[k:]
    return colors


@st.composite
def two_coloring_graphs(draw) -> Graph:
    """Graphs whose touched vertices sit among isolated ones: below them,
    above them, scattered, or in an `n` far larger than they are."""
    size = draw(st.integers(0, 30))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = np.triu_indices(size, 1)
    keep = rng.random(len(u)) < density
    if draw(st.booleans()):
        side = rng.integers(0, 2, size)
        keep &= side[u] != side[v]
    edges = np.stack((u[keep], v[keep]), axis=1)
    if size >= 3 and draw(st.booleans()):
        edges = np.concatenate((edges, [[0, 1], [1, 2], [0, 2]]))  # a triangle
    low = draw(st.integers(0, 3))
    n = low + size + draw(st.sampled_from([0, 1, 5, 10_000, 200_000]))
    ids = np.arange(size) + low
    if draw(st.booleans()):
        ids = np.sort(rng.choice(n, size, replace=False))  # scattered, in vertex order
    return Graph(n, ids[edges].reshape(-1, 2))


class TestTwoColoringFromTheEdgeArray:
    @given(two_coloring_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_csr_double_cover_byte_for_byte(self, g):
        got, want = _two_coloring(g), reference_two_coloring(g)
        bipartite = nx.is_bipartite(nx.Graph(g.edge_array().tolist()))
        assert (got is None) == (want is None) == (not bipartite)
        if got is not None:
            assert got.tobytes() == want.tobytes()

    def test_q2_never_builds_the_csr(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("the q = 2 path must read edge_array, not csr()")

        monkeypatch.setattr(Graph, "csr", forbidden)
        even = Graph(12, [(2, 3), (3, 4), (4, 5), (5, 2), (9, 11)])
        odd = Graph(12, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 2), (9, 11)])
        for g in (even, odd):
            found, capped = find_k_coloring(g, 2), color_with_cap(g, 2)
            assert same_coloring(found, capped)
            assert (found is None) == (g is odd)
            if found is not None:
                assert is_proper_coloring(g, found) and found.num_colors == 2

    def test_search_hands_its_colors_to_the_one_ranking(self, monkeypatch):
        # vertices 0 and 4 have degree 0: the search ranks its 5 local
        # colors and vertex 0, the smallest of them
        ranked, real = [], exact.first_appearance

        def spy(labels, at):
            ranked.append(at.tolist())
            return real(labels, at)

        monkeypatch.setattr(exact, "first_appearance", spy)
        g = Graph(7, [(1, 2), (2, 3), (3, 1), (5, 6)])
        got = dsatur_coloring(g)
        assert ranked == [[1, 2, 3, 5, 6, 0]]
        assert is_proper_coloring(g, got) and got.num_colors == 3
        assert got.colors.tolist() == reference_canonical(got.colors.tolist())
        assert got.colors[0] == got.colors[4] == 0

    def test_q2_coloring_is_canonical_without_a_relabel(self, monkeypatch):
        def forbidden(colors):
            raise AssertionError("a two-coloring is canonical as found; relabelling it is waste")

        spec = GraphSpec.parse("bipartite:n=200,m=8000").build(rng_for(1, 0))
        for g in (spec, Graph(9, [(3, 5), (5, 8), (1, 2)])):
            want = Coloring.from_array(_two_coloring(g))
            with monkeypatch.context() as patch:
                patch.setattr("streamcolor.graph.first_appearance", forbidden)
                found, capped = find_k_coloring(g, 2), color_with_cap(g, 2)
            assert found == capped == want
            assert found.num_colors == capped.num_colors == 2

    def test_sparse_graph_on_many_vertices_peaks_near_one_vertex_array(self):
        # a 1,000-edge path among 10^6 vertices: one int64 array over the
        # vertices is 8 MB, and a double cover over all 2n vertex ids would
        # peak near 48 MB
        path = np.arange(1001) * 997
        g = Graph(1_000_000, np.stack((path[:-1], path[1:]), axis=1))
        colors, peak = peak_bytes(lambda: _two_coloring(g))
        assert colors[path].tolist() == [i % 2 for i in range(1001)]
        assert peak <= 12 * 10**6


class TestParityHookingAgreesWithNetworkx:
    @given(two_coloring_graphs())
    @settings(max_examples=200, deadline=None)
    def test_components_and_two_coloring(self, g):
        nxg = nx.Graph(g.edge_array().tolist())
        if g.num_edges:
            _, verts, ends = _compact(g)
            want = sorted((sorted(c) for c in nx.connected_components(nxg)), key=min)
            assert [verts[c].tolist() for c in _components(ends, len(verts))] == want
        two = _two_coloring(g)
        assert (two is None) == (not nx.is_bipartite(nxg))
        if two is not None:
            assert two.tobytes() == bfs_two_coloring(g).tobytes()


def fifty_thousand_vertex_shapes() -> dict[str, Graph]:
    """Bipartite shapes on 50,000 vertices whose id orders make long
    hooking chains or many hooking rounds."""
    n = 50_000
    rng = np.random.default_rng(25)
    ring = np.arange(n)
    cycle = np.stack((ring, np.roll(ring, -1)), axis=1)
    ids = np.arange(n).reshape(200, n // 200)
    grid = np.concatenate((
        np.stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()), axis=1),
        np.stack((ids[:-1].ravel(), ids[1:].ravel()), axis=1),
    ))
    child = np.arange(1, n)
    zigzag = np.empty(n, dtype=np.int64)  # 0, n-1, 1, n-2, ...
    zigzag[0::2], zigzag[1::2] = ring[: n // 2], ring[::-1][: n // 2]
    spine = ring[: n // 2]
    return {
        "even cycle, shuffled ids": Graph(n, rng.permutation(n)[cycle]),
        "grid, row-major ids": Graph(n, grid),
        "grid, shuffled ids": Graph(n, rng.permutation(n)[grid]),
        "binary tree, reversed ids": Graph(n, n - 1 - np.stack(((child - 1) // 2, child), axis=1)),
        "zigzag path": Graph(n, np.stack((zigzag[:-1], zigzag[1:]), axis=1)),
        "caterpillar": Graph(n, np.concatenate((
            np.stack((spine[:-1], spine[1:]), axis=1),
            np.stack((spine, spine + n // 2), axis=1),
        ))),
    }


class TestTwoColoringAtFiftyThousandVertices:
    @pytest.mark.parametrize("shape", list(fifty_thousand_vertex_shapes()))
    def test_matches_the_double_cover_in_time(self, shape):
        g = fifty_thousand_vertex_shapes()[shape]
        start = time.perf_counter()
        got = _two_coloring(g)
        assert time.perf_counter() - start < 2.0
        assert got.tobytes() == reference_two_coloring(g).tobytes()
        # a chord between two vertices of color 1 closes an odd cycle
        u, v = np.flatnonzero(got)[[0, -1]]
        odd = Graph(g.n, np.concatenate((g.edge_array(), [[u, v]])))
        assert _two_coloring(odd) is None and reference_two_coloring(odd) is None


class TestStarWithManyLeaves:
    def test_dsatur_memory_does_not_grow_with_the_degree(self):
        # a color row per possible color, Δ + 1 of them, would take 10^8
        # bytes here (10^10 at 10^5 leaves); tracing 10^5 DSATUR steps
        # takes seconds, so the star has 10^4 leaves
        star = Graph(10_001, [(0, leaf) for leaf in range(1, 10_001)])
        # DSATUR's coloring fits in 3 colors, so both are one descent
        for solve in (lambda: find_k_coloring(star, 3), lambda: dsatur_coloring(star)):
            got, peak = peak_bytes(solve)
            assert got.num_colors == 2 and is_proper_coloring(star, got)
            assert peak < 16 * 2**20


class TestColorRowsGrowWithTheColorsUsed:
    def test_a_huge_k_costs_no_row_per_color(self, k4, petersen):
        # a row per allowed color, k of them, took 30.5 MB for K4 at k = 10^6
        got, peak = peak_bytes(lambda: _search(k4, 10**6)[0])
        assert got.num_colors == 4 and is_proper_coloring(k4, got) and peak < 2**20
        got, peak = peak_bytes(lambda: find_k_coloring(petersen, 10**9))
        assert got.num_colors == 3 and is_proper_coloring(petersen, got) and peak < 2**20


class TestGreedyCliqueCost:
    def test_a_start_vertex_costs_its_rows_not_the_whole_graph(self):
        # every vertex of a triangle-free odd cycle is a start vertex; 10^6
        # padding vertices of degree 1 add no start, so they may add only
        # the upfront sorts, not a pass over every vertex per start (which
        # made the padded run about 8 times slower than the bare cycle)
        cycle = np.stack((np.arange(20_001), (np.arange(20_001) + 1) % 20_001), axis=1)
        padding = np.arange(20_001, 1_020_001).reshape(-1, 2)
        alone = Graph(20_001, cycle)
        padded = Graph(1_020_001, np.concatenate((cycle, padding)))

        def seconds(g: Graph) -> float:
            g.csr()  # built once, outside the timing
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                assert len(greedy_clique_lower_bound(g)) == 2
                best = min(best, time.perf_counter() - start)
            return best

        assert seconds(padded) < 4 * seconds(alone)


class TestNoDictAdjacency:
    def test_solver_never_builds_the_dict_adjacency(self, monkeypatch, petersen, k4):
        def forbidden(self):
            raise AssertionError("the exact layer must read the CSR, not adjacency()")

        monkeypatch.setattr(Graph, "adjacency", forbidden)
        bipartite = Graph(8, [(0, 5), (1, 5), (2, 6), (3, 7), (0, 7)])
        for g in (petersen, k4, bipartite, Graph(6, [(0, 1), (1, 2), (0, 2), (4, 5)])):
            for cap in (None, 1, 2, 3, 4):
                color_with_cap(g, cap)
            for k in (1, 2, 3, 4):
                find_k_coloring(g, k)
            dsatur_coloring(g)
            chromatic_number(g)


# ---------------------------------------------------------------------------
# the two row forms of the search: a bool adjacency matrix when nv^2 <= 16 m
# for nv vertices of degree >= 1, the CSR neighbour lists otherwise
# ---------------------------------------------------------------------------


def complete_multipartite(*sizes: int) -> Graph:
    part = np.repeat(np.arange(len(sizes)), sizes)
    u, v = np.triu_indices(len(part), 1)
    cross = part[u] != part[v]
    return Graph(len(part), np.stack((u[cross], v[cross]), axis=1))


def crown(n: int) -> Graph:
    """K_{n,n} less a perfect matching: every vertex ties on degree."""
    return Graph(2 * n, [(i, n + j) for i in range(n) for j in range(n) if i != j])


def wheel(rim: int) -> Graph:
    return Graph(rim + 1, [(0, i) for i in range(1, rim + 1)]
                 + [(i, i % rim + 1) for i in range(1, rim + 1)])


def on_the_size_rule(nv: int, extra: int, seed: int, offset: int = 0) -> Graph:
    """A graph on `nv` vertices of degree >= 1 (nv divisible by 4) with
    ``nv^2 / 16 + extra`` edges: a perfect matching, then random pairs."""
    rng = np.random.default_rng(seed)
    m = nv * nv // 16 + extra
    perm = rng.permutation(nv)
    keys = set(map(tuple, np.sort(perm.reshape(-1, 2), axis=1).tolist()))
    while len(keys) < m:
        u, v = sorted(rng.choice(nv, size=2, replace=False).tolist())
        keys.add((u, v))
    return Graph(nv + offset, np.array(sorted(keys)) + offset)


def with_matching(g: Graph) -> Graph:
    """`g` with a perfect matching on new vertices, the fewest edges that
    put it on the CSR side of the size rule, ``nv^2 > 16 m``."""
    nv, m, p = len(np.unique(g.edge_array())), g.num_edges, 1
    while (nv + 2 * p) ** 2 <= 16 * (m + p):
        p += 1
    matching = g.n + np.arange(2 * p).reshape(p, 2)
    return Graph(g.n + 2 * p, np.concatenate((g.edge_array(), matching)))


def form_graphs() -> dict[str, Graph]:
    graphs = {
        f"rule nv={nv} extra={extra} seed={seed}": on_the_size_rule(nv, extra, seed, offset=seed % 3)
        for nv in (12, 16, 20)
        for extra in (-1, 0, 1)
        for seed in (0, 1)
    }
    # dense as they stand; a disjoint matching moves each to the CSR side,
    # where their ties and backtracking undo run on the neighbour lists
    families = {
        "K_{2,2,2}": complete_multipartite(2, 2, 2),
        "K_{3,3,3,3}": complete_multipartite(3, 3, 3, 3),
        "K_{1,2,3,4}": complete_multipartite(1, 2, 3, 4),
        "crown 6": crown(6),
        "crown 9": crown(9),
        "wheel 5": wheel(5),
        "wheel 8": wheel(8),
    }
    for name, g in families.items():
        graphs[name] = g
        graphs[f"{name} + matching"] = with_matching(g)
    rng = np.random.default_rng(26)
    for nv in (10, 14, 18):
        for density in (0.3, 0.5, 0.7):
            u, v = np.triu_indices(nv, 1)
            keep = rng.random(len(u)) < density
            graphs[f"gnp nv={nv} p={density}"] = Graph(nv + 2, np.stack((u[keep], v[keep]), axis=1) + 2)
    return graphs


class TestDenseRowsMatchTheReferences:
    @pytest.mark.parametrize("name", list(form_graphs()))
    def test_each_form_and_the_solvers_match_byte_for_byte(self, name, monkeypatch):
        g = form_graphs()[name]
        verts = np.unique(g.edge_array())
        dense = len(verts) ** 2 <= 16 * g.num_edges
        # the size rule picks the form: only the list form reads the CSR
        csr_calls = []
        real_csr = Graph.csr
        monkeypatch.setattr(Graph, "csr", lambda self: csr_calls.append(1) or real_csr(self))
        for k in (None, 3, 4, 5):
            fresh = Graph(g.n, g.edge_array())  # no cached CSR
            coloring, clique = _search(fresh, k)
            want = reference_dsatur(g) if k is None else reference_search(g, k)
            assert same_coloring(coloring, want)
            assert missing_clique_pair(g, clique) is None
            assert (clique == []) == (k is not None)
        assert bool(csr_calls) == (not dense)
        assert same_coloring(dsatur_coloring(g), reference_dsatur(g))
        for k in (3, 4, 5):
            assert same_coloring(find_k_coloring(g, k), reference_find_k_coloring(g, k))
        for cap in (None, 3, 4, 5):
            assert same_coloring(color_with_cap(g, cap), reference_color_with_cap(g, cap))

    def test_the_rule_graphs_lie_on_both_sides_and_on_the_line(self):
        sides = set()
        for nv in (12, 16, 20):
            for extra in (-1, 0, 1):
                g = on_the_size_rule(nv, extra, seed=0)
                assert len(np.unique(g.edge_array())) == nv
                sides.add(int(np.sign(nv * nv - 16 * g.num_edges)))
        assert sides == {-1, 0, 1}

    def test_every_family_is_searched_in_both_forms(self):
        graphs = form_graphs()
        for name, g in graphs.items():
            if name.endswith(" + matching"):
                base = graphs[name.removesuffix(" + matching")]
                for h, dense in ((base, True), (g, False)):
                    nv = len(np.unique(h.edge_array()))
                    assert (nv * nv <= 16 * h.num_edges) == dense, name

    @given(small_graphs(max_n=24), st.sampled_from([None, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_only_the_first_descent_returns_a_clique(self, g, k):
        # a bounded search backtracks, and a vertex that reopens a color
        # after a pop need not be adjacent to all colored before it
        coloring, clique = _search(g, k)
        assert missing_clique_pair(g, clique) is None
        if k is not None:
            assert clique == []
        else:
            assert len(clique) <= coloring.num_colors
            assert len(clique) >= min(g.num_edges, 1) * 2


class TestDsaturCliqueSettlesChi:
    def test_a_planted_clique_needs_no_greedy_clique_and_no_csr(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("DSATUR's clique settles chi here")

        planted = GraphSpec.parse("planted:n=40,clique=10").build(rng_for(1, 0))
        k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        pendants = Graph(8, k6 + [(0, 6), (1, 6), (2, 7), (3, 7)])
        want = [reference_color_with_cap(g, cap) for g in (planted, pendants) for cap in (None, 5)]
        monkeypatch.setattr(exact, "greedy_clique_lower_bound", forbidden)
        monkeypatch.setattr(Graph, "csr", forbidden)
        got = [color_with_cap(g, cap) for g in (planted, pendants) for cap in (None, 5)]
        assert [None if c is None else c.num_colors for c in got] == [10, None, 6, None]
        assert all(same_coloring(a, b) for a, b in zip(got, want))

    def test_an_odd_wheel_still_reaches_the_search(self, monkeypatch):
        # W_5: DSATUR's clique is a triangle, but chi = 4
        calls = []
        real = exact.greedy_clique_lower_bound
        monkeypatch.setattr(exact, "greedy_clique_lower_bound", lambda g: calls.append(1) or real(g))
        w5 = wheel(5)
        assert len(_search(w5, None)[1]) == 3
        assert chromatic_number(w5) == 4 and chromatic_number(w5, 3) is None
        assert len(calls) == 2


class TestDenseRowsMemory:
    def test_dense_form_peaks_below_building_the_csr(self):
        # the list form builds the CSR inside its own run, so building it
        # alone is a lower bound on that form's peak
        g = GraphSpec.parse("gnm:n=300,m=20000").build(rng_for(26, 0))
        assert 300**2 <= 16 * g.num_edges
        first, second = Graph(g.n, g.edge_array()), Graph(g.n, g.edge_array())  # no cached CSR
        (coloring, _), dense_peak = peak_bytes(lambda: _search(first, None))
        assert is_proper_coloring(g, coloring)
        _, csr_peak = peak_bytes(second.csr)
        assert dense_peak < csr_peak

    def test_no_vertex_sized_array_beyond_the_coloring(self):
        # K_5 on the top ids of 10^7 vertices: 10 edges, 5 vertices, dense
        n = 10**7
        top = np.arange(n - 5, n)
        g = Graph(n, [(a, b) for a in top for b in top if a < b])
        (coloring, clique), peak = peak_bytes(lambda: _search(g, None))
        assert coloring.num_colors == 5 and sorted(clique) == top.tolist()
        assert coloring.colors[: n - 5].max() == 0 and coloring.colors[-5:].tolist() == [0, 1, 2, 3, 4]
        assert peak < 8 * n + 2**20
