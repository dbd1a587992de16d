from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streamcolor import (
    Coloring,
    Graph,
    Stream,
    induced_subgraph,
    is_proper_coloring,
    product_coloring,
    read_coloring,
    read_graph,
    run_random_order,
    to_insertion_stream,
    write_coloring,
    write_graph,
)
from streamcolor.errors import ArgumentError, FormatError, StreamValidationError
from streamcolor.graph import MAX_VERTICES, missing_clique_pair, stable_order

from oracles import (
    ReplayMultigraph,
    brute_induced_edges,
    brute_is_proper,
    peak_bytes,
    reference_canonical,
    refine_partition,
)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ArgumentError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ArgumentError):
            Graph(3, [(0, 3)])

    def test_deduplicates_and_normalizes(self):
        g = Graph(3, [(2, 0), (0, 2)])
        assert g.edges == {(0, 2)}

    def test_construction_peak_memory_per_row(self):
        # the keys are built, sorted and deduplicated in place: about 27 bytes
        # per input row at peak under tracemalloc, against 42 when the sort,
        # the diff and the key sum each made an (m,) copy
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 3000, (400_000, 2))
        rows = rows[rows[:, 0] != rows[:, 1]]
        g, peak = peak_bytes(lambda: Graph(3000, rows))
        keys = np.unique(rows.min(axis=1) * 3000 + rows.max(axis=1))
        assert np.array_equal(g.edge_array(), np.stack(np.divmod(keys, 3000), axis=1))
        assert peak / len(rows) <= 32

    def test_adjacency(self, c5):
        assert c5.adjacency()[0] == {1, 4}

    @given(
        st.integers(0, 8),
        st.lists(st.tuples(st.integers(-2, 10), st.integers(-2, 10)), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_constructor_matches_set_reference(self, n, pairs):
        def reference() -> set[tuple[int, int]] | None:
            """Set-based reference edge set, or None where the input is invalid."""
            seen = set()
            for u, v in pairs:
                lo, hi = min(u, v), max(u, v)
                if lo == hi or lo < 0 or hi >= n:
                    return None
                seen.add((lo, hi))
            return seen

        expected = reference()
        for given_pairs in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
            if expected is None:
                with pytest.raises(ArgumentError):
                    Graph(n, given_pairs)
                continue
            g = Graph(n, given_pairs)
            assert g.edges == expected and g.num_edges == len(expected)
            assert g.edge_array().tolist() == [list(e) for e in sorted(expected)]

    def test_input_forms_compare_and_hash_equal(self, petersen):
        rows = petersen.edge_array()
        forms = [
            Graph(10, rows[::-1].copy()),
            Graph(10, [(v, u) for u, v in rows.tolist()]),
            Graph(10, ((u, v) for u, v in rows.tolist())),
            Graph(10, set(petersen.edges)),
        ]
        for g in forms:
            assert g == petersen and hash(g) == hash(petersen)
        assert Graph(11, rows) != petersen
        assert Graph(10, rows[1:]) != petersen

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 2), (3, 4, 5)],
            [(0, 1), (2,)],
            [(0, 1), (1, 2, 3)],
            np.zeros((2, 3), dtype=np.int64),
            np.array([[0.0, 1.0]]),
            [5, 6],
        ],
    )
    def test_rejects_rows_that_are_not_pairs(self, edges):
        with pytest.raises(ArgumentError):
            Graph(8, edges)

    def test_rejects_negative_n(self):
        with pytest.raises(ArgumentError):
            Graph(-1)

    def test_edge_array_is_read_only(self, c5):
        with pytest.raises(ValueError):
            c5.edge_array()[0, 0] = 3

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matches_dict_of_sets(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        expected: dict[int, set[int]] = {}
        for (u, v), keep in zip(pairs, mask):
            if keep:
                expected.setdefault(u, set()).add(v)
                expected.setdefault(v, set()).add(u)
        adj = Graph(n, [e for e, keep in zip(pairs, mask) if keep]).adjacency()
        assert adj == expected
        assert list(adj) == sorted(expected)

    @given(
        st.integers(0, 12),
        st.integers(0, 50),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_csr_matches_neighbour_sets(self, offset, extra, pairs):
        # `offset` isolated low vertices and `extra` high ones, so local ids
        # and vertex ids differ
        pairs = [(u + offset, v + offset) for u, v in pairs if u != v]
        n = 12 + offset + extra
        nbrs: dict[int, set[int]] = {}
        for u, v in pairs:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        g = Graph(n, pairs)
        verts, indptr, indices = g.csr()
        assert verts.tolist() == sorted(nbrs)
        for i, v in enumerate(verts.tolist()):
            row = verts[indices[indptr[i] : indptr[i + 1]]].tolist()
            assert row == sorted(nbrs[v])

    def test_csr_is_read_only_and_cached(self, c5):
        verts, indptr, indices = c5.csr()
        assert c5.csr()[2] is indices
        with pytest.raises(ValueError):
            indices[0] = 3


def reference_graph_edges(n: int, rows: np.ndarray) -> np.ndarray:
    """The sort-and-dedupe construction: every key ``u * n + v`` sorted, then
    each run of a key cut to its first entry, whatever order the rows came in."""
    keys = np.sort(rows.min(axis=1) * n + rows.max(axis=1))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack(np.divmod(keys, max(n, 1)), axis=1)


class TestGraphSkipsTheSortOfSortedRows:
    @given(
        st.integers(2, 12),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
        st.lists(st.integers(1, 3), min_size=40, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sort_and_dedupe_reference(self, n, pairs, copies):
        rows = np.array([(u, v) for u, v in pairs if u != v and max(u, v) < n], np.int64)
        rows = rows.reshape(-1, 2)
        ordered = reference_graph_edges(n, rows)
        forms = {
            "as drawn": rows,
            "sorted": ordered,
            "reversed": ordered[::-1],
            "sorted, endpoints swapped": ordered[:, ::-1],
            "sorted with repeats": np.repeat(ordered, copies[: len(ordered)], axis=0),
            "sorted, one row moved to the end": np.roll(ordered, -1, axis=0),
        }
        for what, form in forms.items():
            given_rows = form.copy()
            got = Graph(n, form).edge_array()
            want = reference_graph_edges(n, form)
            assert got.dtype == want.dtype == np.int64, what
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), what
            assert not got.flags.writeable, what
            assert np.array_equal(form, given_rows), what  # the input is left as it was


class TestStableOrder:
    @given(
        st.one_of(
            st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30),  # negatives: the argsort
            st.lists(st.integers(-3, 3), max_size=200),
            st.lists(st.integers(0, 3), max_size=200),  # duplicate-heavy: the packed sort
            st.lists(st.integers(0, 10**6), max_size=200),
            # near 2**62: packed for one key, too wide to pack for two or more
            st.lists(st.integers(2**62 - 8, 2**62 + 8), max_size=20),
        )
    )
    @example([])
    @example([(2**63 - 1) // 3 - 1, 0, (2**63 - 1) // 3 - 1])  # the widest three keys that pack
    @example([(2**63 - 1) // 3, 0, 0])  # one wider: the argsort
    @settings(max_examples=400, deadline=None)
    def test_equals_the_stable_argsort(self, keys):
        keys = np.array(keys, dtype=np.int64)
        got, want = stable_order(keys), np.argsort(keys, kind="stable")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "keys, packed",
        [
            ([3, 1, 3, 0, 1], True),
            ([(2**63 - 1) // 3 - 1, 0, 5], True),
            ([(2**63 - 1) // 3, 0, 5], False),
            ([2**62, 2**62], False),
            ([-1, 2], False),
        ],
    )
    def test_argsort_only_where_the_keys_do_not_pack(self, monkeypatch, keys, packed):
        keys = np.array(keys, dtype=np.int64)
        want, argsort, calls = np.argsort(keys, kind="stable"), np.argsort, []

        def counting(*args, **kwargs):
            calls.append(args)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        assert stable_order(keys).tolist() == want.tolist()
        assert len(calls) == (0 if packed else 1)


def reference_csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR built with `np.diff` row starts and a binary search in
    ``verts`` for every local id."""
    a, n = g.edge_array(), g.n
    keys = np.sort(np.concatenate((a[:, 0] * n + a[:, 1], a[:, 1] * n + a[:, 0])))
    src, dst = np.divmod(keys, max(n, 1))
    first = np.diff(src, prepend=-1) != 0
    verts = src[first]
    return verts, np.append(np.flatnonzero(first), len(src)), np.searchsorted(verts, dst)


def assert_csr_matches_reference(g: Graph) -> np.ndarray:
    got = g.csr()
    for arr, want in zip(got, reference_csr(g)):
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert np.array_equal(arr, want)
    return got[0]


class TestCsrMatchesReference:
    @given(
        st.integers(0, 14).filter(lambda n: n != 1),
        st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_vertex_has_an_edge(self, n, pairs):
        path = [(v, v + 1) for v in range(n - 1)]
        g = Graph(n, path + [(u, v) for u, v in pairs if u != v and max(u, v) < n])
        verts = assert_csr_matches_reference(g)
        assert verts.tolist() == list(range(n))

    @given(st.data(), st.integers(4, 16))
    @settings(max_examples=100, deadline=None)
    def test_isolated_vertices_with_n_at_most_twice_m(self, data, n):
        hole = data.draw(st.integers(0, n - 1))
        others = st.sampled_from([v for v in range(n) if v != hole])
        pairs = data.draw(st.lists(st.tuples(others, others), min_size=n, max_size=3 * n))
        g = Graph(n, [(u, v) for u, v in pairs if u != v])
        assume(n <= 2 * g.num_edges)
        verts = assert_csr_matches_reference(g)
        assert hole not in verts

    @given(
        st.sampled_from([20, 10**9]),
        st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=6),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_more_vertices_than_arcs(self, n, pairs, spread):
        # at n = 10**9 the endpoints are spread across the whole range
        scale = 1 if n == 20 else spread % (n // 20) + 1
        g = Graph(n, [(u * scale, v * scale) for u, v in pairs if u != v])
        assert n > 2 * g.num_edges
        assert_csr_matches_reference(g)

    def test_sparse_csr_allocates_nothing_by_n(self):
        # a 1,000-edge path among 10**6 vertices: an n-entry lookup would be
        # 8 MB, so the local ids must come from the binary search
        path = np.arange(1001) * 997
        g = Graph(10**6, np.column_stack((path[:-1], path[1:])))
        (verts, _, _), peak = peak_bytes(g.csr)
        assert verts.tolist() == path.tolist()
        assert peak < 1_000_000


class TestIsProperColoring:
    def test_empty_graph_single_color(self):
        g = Graph(4)
        assert is_proper_coloring(g, Coloring.from_array([0, 0, 0, 0]))

    def test_monochromatic_edge(self):
        g = Graph(2, [(0, 1)])
        assert not is_proper_coloring(g, Coloring.from_array([0, 0]))

    def test_c5_three_coloring(self, c5):
        colors = [0, 1, 0, 1, 2]
        assert brute_is_proper(5, sorted(c5.edges), colors)  # oracle agrees
        assert is_proper_coloring(c5, Coloring.from_array(colors))

    def test_size_mismatch(self, c5):
        with pytest.raises(ArgumentError):
            is_proper_coloring(c5, Coloring.from_array([0, 1]))

    def test_n_is_the_length_of_colors(self, c5):
        # n is read off the colors, so it cannot be given apart from them
        with pytest.raises(TypeError):
            Coloring(n=5, colors=np.zeros(3, np.int64), num_colors=1)
        short = Coloring(colors=np.zeros(3, np.int64), num_colors=1)
        assert short.n == 3
        with pytest.raises(ArgumentError, match="coloring has n=3, graph has n=5"):
            is_proper_coloring(c5, short)


class TestColoringCanonicalForm:
    def test_first_appearance_relabel(self):
        c = Coloring.from_array([5, 5, 7, 3, 7])
        assert c.colors.tolist() == [0, 0, 1, 2, 1]
        assert c.num_colors == 3

    def test_empty(self):
        c = Coloring.from_array([])
        assert c.n == 0 and c.num_colors == 0

    def test_idempotent(self):
        first = Coloring.from_array([9, 1, 9, 4])
        again = Coloring.from_array(first.colors)
        assert first == again

    def test_verdict_coloring_is_read_only(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        v = run_random_order(to_insertion_stream(path, "as-given"), 2, 2)
        assert v.label == "small" and v.coloring.num_colors == 2
        with pytest.raises(ValueError, match="read-only"):
            v.coloring.colors[:] = 0
        assert is_proper_coloring(path, v.coloring)

    def test_constructor_freezes_the_given_array_without_a_copy(self):
        colors = np.array([0, 1, 0], dtype=np.int64)
        c = Coloring(colors=colors, num_colors=2)
        assert c.colors is colors and not colors.flags.writeable

    def test_equal_partitions_hash_equal(self):
        a, b = Coloring.from_array([1, 0, 1]), Coloring.from_array([7, -3, 7])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Coloring.from_array([0, 1, 1]), Coloring.from_array([])}) == 3

    @pytest.mark.parametrize("labels, dtype, shape", [
        ([1.5, 2], "float64", "(2,)"),
        (["a", "b"], "<U1", "(2,)"),
        ([[0, 1]], "int64", "(1, 2)"),
        ([True, False], "bool", "(2,)"),
        ([2**64], "object", "(1,)"),
    ])
    def test_from_array_takes_only_1d_integer_labels(self, labels, dtype, shape):
        message = f"colors must be a 1-D integer array, got {dtype} of shape {shape}"
        with pytest.raises(ArgumentError, match=re.escape(message)):
            Coloring.from_array(labels)


@st.composite
def label_lists(draw) -> list[int]:
    """n labels in the first-position table's range ``[0, 2n)``, or reaching
    below 0 or up to magnitude 2^62, where a sort compresses them first."""
    n = draw(st.integers(0, 40))
    lo, hi = draw(st.sampled_from([(0, 2 * n - 1), (-2, 2 * n - 1), (0, 2**62), (-(2**62), 2**62)]))
    return draw(st.lists(st.integers(lo, max(lo, hi)), min_size=n, max_size=n))


class TestFirstAppearance:
    @given(label_lists())
    @example([])
    @example([3, 3, 0, 5])  # all below 2n = 8: the table as it stands
    @example([0, 8, 0])  # 8 >= 2n = 6
    @example([-1, 4, -1])
    @example([2**62, -(2**62), 2**62])
    @settings(max_examples=200, deadline=None)
    def test_from_array_matches_dict_reference(self, labels):
        c = Coloring.from_array(np.array(labels, dtype=np.int64))
        assert c.colors.dtype == np.int64
        assert c.colors.tolist() == reference_canonical(labels)
        assert c.num_colors == len(set(labels))

    @given(st.integers(0, 30).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 11), min_size=n, max_size=n),
        st.lists(st.integers(0, 11), min_size=n, max_size=n),
    )))
    @example(([], []))
    @example(([0, 1, 2, 3], [0, 1, 2, 3]))  # codes up to 15 >= 2n = 8
    @example(([0, 1, 1, 0], [0, 0, 1, 1]))  # codes below 8
    @settings(max_examples=200, deadline=None)
    def test_product_matches_dict_reference(self, pair):
        c1, c2 = (Coloring.from_array(np.array(x, dtype=np.int64)) for x in pair)
        got = product_coloring(c1, c2)
        want = reference_canonical(zip(c1.colors.tolist(), c2.colors.tolist()))
        assert got.colors.tolist() == want
        assert got.num_colors == len(set(want))

    def test_labels_in_table_range_take_no_sort(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("labels in [0, 2n) index the table as they stand")

        monkeypatch.setattr("streamcolor.graph.np.unique", forbidden)
        assert Coloring.from_array([5, 0, 5, 11, 1, 0]).colors.tolist() == [0, 1, 0, 2, 3, 1]
        c1, c2 = Coloring.from_array([0, 1, 1, 0]), Coloring.from_array([0, 0, 1, 1])
        assert product_coloring(c1, c2).colors.tolist() == [0, 1, 2, 3]

    def test_product_peak_per_vertex(self):
        # the product codes, the positions and the ranked output are the
        # n-sized arrays: 16 bytes a vertex at peak, against 49 through a sort
        n = 10**6
        rng = np.random.default_rng(3)
        c1, c2 = (Coloring.from_array(rng.integers(0, 2, n)) for _ in range(2))
        got, peak = peak_bytes(lambda: product_coloring(c1, c2))
        _, first, inverse = np.unique(c1.colors * 2 + c2.colors, return_index=True, return_inverse=True)
        assert np.array_equal(got.colors, np.argsort(np.argsort(first))[inverse])
        assert peak / n < 24


class TestVerifyClique:
    def test_k4(self, k4):
        assert missing_clique_pair(k4, {0, 1, 2, 3}) is None

    def test_c5_triangle_missing(self, c5):
        assert missing_clique_pair(c5, {0, 1, 2}) is not None

    def test_out_of_range(self, k4):
        with pytest.raises(ArgumentError):
            missing_clique_pair(k4, {0, 7})

    def test_small_sets_trivially_cliques(self, c5):
        assert missing_clique_pair(c5, set()) is None
        assert missing_clique_pair(c5, {3}) is None

    def test_reads_no_edge_frozenset(self, k4):
        assert missing_clique_pair(k4, [3, 1, 2, 0, 1]) is None
        assert k4._edges is None


def reference_missing_pair(g: Graph, vertices) -> tuple[int, int] | None:
    """The first non-adjacent pair of the distinct vertices, one edge-set lookup per pair."""
    pairs = itertools.combinations(sorted(set(vertices)), 2)
    return next(((u, v) for u, v in pairs if (u, v) not in g.edges), None)


class TestMissingCliquePair:
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])),
        st.lists(st.integers(0, n - 1), max_size=16),
    )))
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_reference(self, case):
        n, edges, vertices = case
        g = Graph(n, edges)
        assert missing_clique_pair(g, vertices) == reference_missing_pair(g, vertices)
        assert (missing_clique_pair(g, vertices) is None) == (reference_missing_pair(g, vertices) is None)

    def test_first_pair_in_ascending_order_with_duplicates(self, c5):
        # 0-1 and 1-2 are edges of the 5-cycle, 0-2 is the first that is not
        assert missing_clique_pair(c5, [2, 1, 0, 2, 1]) == (0, 2)
        assert missing_clique_pair(c5, [3, 4, 3]) is None
        assert missing_clique_pair(c5, []) is None

    @pytest.mark.parametrize("vertices", [[0, 5], [-1, 2], [5], [4, 4, 5]])
    def test_out_of_range(self, c5, vertices):
        with pytest.raises(ArgumentError):
            missing_clique_pair(c5, vertices)


class TestProductColoring:
    def test_identity_with_constant(self):
        c = Coloring.from_array([0, 1, 1, 2])
        product = product_coloring(Coloring.from_array([0, 0, 0, 0]), c)
        assert product == c

    def test_two_by_one(self):
        got = product_coloring(Coloring.from_array([0, 1]), Coloring.from_array([0, 0]))
        assert got.colors.tolist() == [0, 1]
        assert got.num_colors == 2

    def test_full_refinement(self):
        got = product_coloring(
            Coloring.from_array([0, 0, 1, 1]), Coloring.from_array([0, 1, 0, 1])
        )
        assert got.colors.tolist() == [0, 1, 2, 3]
        assert got.num_colors == 4

    def test_size_mismatch(self):
        with pytest.raises(ArgumentError):
            product_coloring(Coloring.from_array([0]), Coloring.from_array([0, 1]))

    def test_codes_of_narrow_colors_do_not_wrap(self):
        # in int16, vertex 256's code 256 * 256 + 0 would wrap to vertex 0's code 0
        c1 = Coloring(colors=np.arange(257, dtype=np.int16), num_colors=257)
        c2 = Coloring(colors=np.arange(257, dtype=np.int16) % 256, num_colors=256)
        assert product_coloring(c1, c2).colors.tolist() == list(range(257))

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_common_refinement_property(self, colors1, data):
        colors2 = data.draw(
            st.lists(st.integers(0, 5), min_size=len(colors1), max_size=len(colors1))
        )
        c1 = Coloring.from_array(colors1)
        c2 = Coloring.from_array(colors2)
        prod = product_coloring(c1, c2)
        assert prod.colors.tolist() == refine_partition(colors1, colors2)
        assert prod.num_colors <= c1.num_colors * c2.num_colors
        n = len(colors1)
        for u in range(n):
            for v in range(n):
                same = prod.colors[u] == prod.colors[v]
                assert same == (
                    colors1[u] == colors1[v] and colors2[u] == colors2[v]
                )

    def test_common_refinement_at_n200(self):
        rng = __import__("numpy").random.default_rng(7)
        colors1 = rng.integers(0, 6, size=200)
        colors2 = rng.integers(0, 4, size=200)
        prod = product_coloring(
            Coloring.from_array(colors1), Coloring.from_array(colors2)
        )
        for u in range(200):
            for v in range(u + 1, 200):
                same = prod.colors[u] == prod.colors[v]
                assert same == (
                    colors1[u] == colors1[v] and colors2[u] == colors2[v]
                )

    def test_monochromatic_iff_both(self, c5):
        c1 = Coloring.from_array([0, 0, 1, 1, 0])
        c2 = Coloring.from_array([0, 0, 0, 1, 1])
        prod = product_coloring(c1, c2)
        for u, v in c5.edges:
            mono = prod.colors[u] == prod.colors[v]
            both = (c1.colors[u] == c1.colors[v]) and (c2.colors[u] == c2.colors[v])
            assert mono == bool(both)


class TestInducedSubgraph:
    def test_full_vertex_set(self, c5):
        sub = induced_subgraph(c5, range(5))
        assert sub.n == 5 and sub.edges == c5.edges

    def test_k4_pair(self, k4):
        sub = induced_subgraph(k4, {0, 1})
        assert sub.n == 2 and sub.edges == {(0, 1)}

    def test_c5_triple(self, c5):
        # oracle: edges of C5 with endpoints in {0, 1, 3} is just (0, 1)
        assert brute_induced_edges(c5.edges, {0, 1, 3}) == [(0, 1)]
        sub = induced_subgraph(c5, {0, 1, 3})
        assert sub.n == 3
        assert sub.edges == {(0, 1)}

    def test_kept_vertices_are_renumbered_by_rank(self, c5):
        # 0, 3 and 4 become 0, 1 and 2, so (3, 4) and (0, 4) become (1, 2) and (0, 2)
        assert brute_induced_edges(c5.edges, {0, 3, 4}) == [(0, 4), (3, 4)]
        sub = induced_subgraph(c5, [4, 0, 3])
        assert sub.n == 3 and sub.edges == {(1, 2), (0, 2)}

    def test_out_of_range(self, c5):
        with pytest.raises(ArgumentError):
            induced_subgraph(c5, {0, 9})


def dynamic_final(n: int, events) -> Graph:
    """The graph a dynamic event list leaves, from `Stream.final_graph`,
    checked against the reference replay."""
    reference = ReplayMultigraph(n)
    for event in events:
        reference.apply(*event)
    final = Stream(n, "dyn", events).final_graph()
    assert final.edges == reference.final_edges()
    return final


class TestDynamicMultigraph:
    """Multiplicities under +1/-1 events: the final graph keeps the pairs
    left positive, and no prefix may go negative."""

    def test_finalize_empty(self):
        assert dynamic_final(4, [(0, 1, 1), (0, 1, -1)]) == Graph(4)

    def test_multiplicity_collapses(self):
        assert dynamic_final(3, [(0, 1, 1)] * 3) == Graph(3, [(0, 1)])

    def test_positivity_filter(self):
        events = [(0, 1, 1), (0, 1, 1), (1, 2, 1), (1, 2, -1), (0, 2, 1)]
        assert dynamic_final(3, events).edges == {(0, 1), (0, 2)}

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            ReplayMultigraph(3).apply(0, 1, -1)
        with pytest.raises(StreamValidationError):
            Stream(3, "dyn", [(0, 1, -1)])

    @given(st.permutations(list(range(6))))
    @settings(max_examples=40, deadline=None)
    def test_order_independence(self, perm):
        # events: three inserts of (0,1), one insert+delete of (1,2), insert (0,2)
        events = [(0, 1, 1), (0, 1, 1), (0, 1, 1), (1, 2, 1), (1, 2, -1), (0, 2, 1)]
        shuffled = [events[i] for i in perm]
        reference = ReplayMultigraph(3)
        try:
            for u, v, d in shuffled:
                reference.apply(u, v, d)
        except ValueError:  # permutation broke prefix non-negativity
            with pytest.raises(StreamValidationError):
                Stream(3, "dyn", shuffled)
            return
        assert dynamic_final(3, shuffled).edges == {(0, 1), (0, 2)}


class TestSerialization:
    def test_graph_round_trip(self, tmp_path, petersen):
        path = tmp_path / "g.graph"
        write_graph(petersen, str(path))
        again = read_graph(str(path))
        assert again == petersen
        # writing the parsed graph reproduces the bytes
        path2 = tmp_path / "g2.graph"
        write_graph(again, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_graph_rejects_self_loop(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("#graph v1 n=3\n0 0\n")
        with pytest.raises(FormatError):
            read_graph(str(path))

    def test_graph_rejects_duplicate(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("#graph v1 n=3\n0 1\n0 1\n")
        with pytest.raises(FormatError) as err:
            read_graph(str(path))
        assert "line 3" in str(err.value)

    def test_graph_rejects_unsorted_pair(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("#graph v1 n=3\n1 0\n")
        with pytest.raises(FormatError):
            read_graph(str(path))

    def test_coloring_round_trip(self, tmp_path):
        c = Coloring.from_array([0, 1, 0, 2])
        path = tmp_path / "c.json"
        write_coloring(c, str(path))
        assert read_coloring(str(path)) == c

    def test_graph_rejects_negative_n(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("#graph v1 n=-2\n")
        with pytest.raises(FormatError) as err:
            read_graph(str(path))
        assert err.value.line == 1

    def test_graph_rejects_too_large_n(self, tmp_path):
        path = tmp_path / "big.graph"
        path.write_text(f"#graph v1 n={MAX_VERTICES + 1}\n0 1\n")
        with pytest.raises(FormatError) as err:
            read_graph(str(path))
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[1,2]\n",
            '{"colors":5}\n',
            '"colors"\n',
            '{"n":2,"num_colors":2}\n',
            '{"colors":["a","b"],"n":2,"num_colors":2}\n',
            '{"colors":[1.5,0],"n":2,"num_colors":2}\n',
            '{"colors":[true,false],"n":2,"num_colors":2}\n',
        ],
    )
    def test_coloring_rejects_malformed_payload(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_coloring(str(path))
