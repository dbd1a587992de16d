from __future__ import annotations

import dataclasses
import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    ClusterPackingGraph,
    DenseParams,
    Graph,
    canonical_coloring,
    construct_dense,
    construct_lines_basic,
    construct_lines_grouped,
    fano_family,
    gen_intersection_family,
    is_proper_coloring,
    lift_to_k_colorable,
    read_cpg,
    verify_cluster_packing,
    write_cpg,
)
from streamcolor.clusterpack import (
    EXACT_FALLBACK_LIMIT,
    CheckResult,
    LineLayout,
    SetFamily,
)
from streamcolor.exact import find_k_coloring
from streamcolor.errors import (
    ArgumentError,
    FormatError,
    GenerationError,
    ResourceLimitError,
    UnsupportedInputError,
)

from streamcolor.graph import MAX_VERTICES
from oracles import brute_induced_edges, peak_bytes


def check_inducedness_bruteforce(cpg: ClusterPackingGraph) -> None:
    """Independent inducedness oracle: filter the edge list per cluster."""
    for i in range(cpg.t):
        vs = set(cpg.clusters[i].ravel().tolist())
        inside = set(map(tuple, brute_induced_edges(cpg.graph.edges, vs)))
        own = set()
        for clique in cpg.clusters[i]:
            for a in range(len(clique)):
                for b in range(a + 1, len(clique)):
                    u, v = clique[a], clique[b]
                    own.add((u, v) if u < v else (v, u))
        assert inside == own, f"cluster {i} is not induced"


class TestSetFamilies:
    def test_fano_pairwise_intersections_exactly_one(self):
        fam = fano_family(7)
        assert len(fam) == 7
        for i in range(7):
            assert len(set(fam.sets[i])) == 3
            for j in range(i + 1, 7):
                assert len(set(fam.sets[i]) & set(fam.sets[j])) == 1

    def test_random_family_verified_exhaustively(self):
        fam = gen_intersection_family(100, 33, 14, 50, seed=1)
        assert len(fam) == 50
        for i in range(50):
            assert len(set(fam.sets[i])) == 33
            for j in range(i + 1, 50):
                assert len(set(fam.sets[i]) & set(fam.sets[j])) <= 14

    def test_same_seed_same_family(self):
        a = gen_intersection_family(40, 10, 4, 12, seed=9)
        b = gen_intersection_family(40, 10, 4, 12, seed=9)
        assert a.sets == b.sets

    def test_infeasible_raises_generation_error(self):
        # two disjoint 3-subsets of [4] cannot exist
        with pytest.raises(GenerationError) as err:
            gen_intersection_family(4, 3, 0, 2, seed=0)
        assert "violated" in str(err.value)

    def test_family_invariants_validated(self):
        with pytest.raises(ArgumentError):
            SetFamily(d=5, w=2, theta=0, sets=((0, 1), (1, 2)))


class TestLinesBasic:
    def test_64_2_counts(self):
        cpg = construct_lines_basic(64, 2)
        assert (cpg.t, cpg.r, cpg.k) == (32, 2, 2)
        assert cpg.graph.num_edges == 64
        for cluster in cpg.clusters:  # each an induced matching of size 2
            assert len(cluster) == 2
            assert all(len(c) == 2 for c in cluster)
        check_inducedness_bruteforce(cpg)
        assert verify_cluster_packing(cpg).ok

    def test_108_3_counts(self):
        cpg = construct_lines_basic(108, 3)
        assert (cpg.t, cpg.r, cpg.k) == (12, 3, 3)
        assert cpg.graph.num_edges == 108  # 12 clusters * 3 triangles * 3 edges
        check_inducedness_bruteforce(cpg)
        assert verify_cluster_packing(cpg).ok

    def test_too_small_rejected(self):
        with pytest.raises(ArgumentError):
            construct_lines_basic(8, 2)

    def test_divisibility_rejected(self):
        with pytest.raises(ArgumentError):
            construct_lines_basic(66, 2)

    def test_lines_pairwise_share_at_most_one_vertex(self):
        cpg = construct_lines_basic(64, 2)
        lines = [c for cluster in cpg.clusters for c in cluster]
        for a, b in itertools.combinations(lines, 2):
            assert len(set(a) & set(b)) <= 1


class TestLinesGrouped:
    def test_1024_4_2_counts(self):
        cpg = construct_lines_grouped(1024, 4, 2)
        assert (cpg.t, cpg.r, cpg.k) == (2048, 4, 2)
        assert verify_cluster_packing(cpg).ok

    def test_64_2_2_counts(self):
        # t = floor(64/2kr) * floor(64/2k^2 r) = 8 * 4
        cpg = construct_lines_grouped(64, 2, 2)
        assert (cpg.t, cpg.r, cpg.k) == (32, 2, 2)
        check_inducedness_bruteforce(cpg)
        assert verify_cluster_packing(cpg).ok

    def test_sqrt_bound_rejected(self):
        with pytest.raises(ArgumentError):
            construct_lines_grouped(64, 8, 2)

    def test_cluster_accessor_matches_all_clusters(self):
        layout = LineLayout(n=1024, k=2, r=4)
        clusters = layout.clusters()
        for index in range(layout.t_max):
            assert np.array_equal(layout.cluster(index), clusters[index])
        for index in (-1, layout.t_max):
            with pytest.raises(ArgumentError, match="out of range"):
                layout.cluster(index)

    @pytest.mark.parametrize("n, k, r, match", [
        (64, 1, 2, "k must be >= 2"),
        (64, 2, 0, "r must be >= 1"),
        (66, 2, 2, "must divide n"),
        (8, 2, 2, "line ranges empty"),
    ])
    def test_invalid_layout_raises_at_construction(self, n, k, r, match):
        with pytest.raises(ArgumentError, match=match):
            LineLayout(n=n, k=k, r=r)

    def test_vertex_guard_raises_at_construction(self):
        # both sizes tile k * r = 4 and leave lines; only the first fits the guard
        fits = MAX_VERTICES // 4 * 4
        assert LineLayout(n=fits, k=2, r=2).t_max > 0
        with pytest.raises(ResourceLimitError, match=f"n = {fits + 4} exceeds guard"):
            LineLayout(n=fits + 4, k=2, r=2)

    def test_lines_pairwise_share_at_most_one_vertex(self):
        cpg = construct_lines_grouped(64, 2, 2)
        lines = [c for cluster in cpg.clusters for c in cluster]
        for a, b in itertools.combinations(lines, 2):
            assert len(set(a) & set(b)) <= 1


class TestDense:
    def test_fano3_k2_counts(self):
        params = DenseParams(k=2, d=7, p=5, family=fano_family(3))
        cpg = construct_dense(params)
        assert cpg.graph.n == 156_250
        assert (cpg.t, cpg.r) == (3, 625)
        assert cpg.graph.num_edges == 1875
        assert verify_cluster_packing(cpg).ok

    def test_single_set_line_starts_forced(self):
        # with p = 5, k = 2, a start must have x_i + 4 <= 5 on S, so x_i = 1;
        # its layer-1 partner has weight 3w and lands in group 3, color c_2
        params = DenseParams(k=2, d=7, p=5, family=fano_family(1))
        assert params._starts.tolist() == [[1, 1, 1]]
        assert params.r == 5**4
        cliques = params.cluster(0).tolist()
        for clique in cliques[:50]:
            start, partner = clique
            assert start // params.layer_size == 0
            assert partner // params.layer_size == 1
        group = (3 * 3) // 3  # weight of the partner over S is 3 + 2*3 = 9
        assert group == 3
        # groups are colored cyclically (c_1, white, c_2, white, ..., c_k, white)
        slot = [f"c{j // 2 + 1}" if j % 2 == 0 else "white" for j in range(2 * params.k)]
        assert slot[(1 - 1) % (2 * params.k)] == "c1"
        assert slot[(3 - 1) % (2 * params.k)] == "c2"

    @pytest.mark.parametrize("p, what", [(20, "cliques"), (21, "n = ")])
    def test_guards_raise_at_construction(self, p, what):
        # p = 20 gives n = 2 * 20^7 vertices but about 1.6e8 cliques per set
        with pytest.raises(ResourceLimitError, match=what):
            DenseParams(k=2, d=7, p=p, family=fano_family(3))

    def test_p_too_small_rejected(self):
        with pytest.raises(ArgumentError):
            DenseParams(k=2, d=7, p=4, family=fano_family(3))

    def test_theta_bound_strict(self):
        # w = 3 needs theta < 1.5; a family with theta = 2 must be rejected
        fam = SetFamily(d=7, w=3, theta=2, sets=((0, 1, 2), (0, 1, 3)))
        with pytest.raises(ArgumentError):
            DenseParams(k=2, d=7, p=5, family=fam)

    def test_edge_weight_step_property(self):
        # for an edge (u, v) of cluster H_S between layers i < j:
        # w_S(v) - w_S(u) = 2 (j - i) |S|
        params = DenseParams(k=3, d=5, p=7, family=SetFamily(
            d=5, w=3, theta=1, sets=((0, 1, 2), (2, 3, 4))
        ))
        cpg = construct_dense(params)
        for ci, s in enumerate(params.family.sets):
            for clique in cpg.clusters[ci][:30]:
                coords = [_decode(params, v) for v in clique]
                for (li, xi), (lj, xj) in itertools.combinations(coords, 2):
                    wi = sum(xi[c] for c in s)
                    wj = sum(xj[c] for c in s)
                    assert wj - wi == 2 * (lj - li) * len(s)

    def test_cluster_size_matches_bruteforce_enumeration(self):
        # exact count of qualifying starts: x in [p]^d, c_1-colored w.r.t. S,
        # with x_i + 2k <= p on S coordinates
        fam = SetFamily(d=3, w=3, theta=1, sets=((0, 1, 2),))
        params = DenseParams(k=2, d=3, p=9, family=fam)
        count = 0
        for x in itertools.product(range(1, 10), repeat=3):
            if any(xi + 4 > 9 for xi in x):
                continue
            group = sum(x) // 3
            if (group - 1) % 4 == 0:
                count += 1
        assert params.r == count
        cpg = construct_dense(params)
        assert cpg.r == count
        assert verify_cluster_packing(cpg).ok


def reference_starts(k: int, d: int, p: int, w: int) -> tuple[np.ndarray, int]:
    """Every line start listed first, then counted: the start tuples with each
    coordinate in [1, p - 2k] and a c_1-colored sum, and the cluster size r."""
    starts = [
        z for z in itertools.product(range(1, p - 2 * k + 1), repeat=w)
        if (sum(z) // w - 1) % (2 * k) == 0
    ]
    return np.array(starts, np.int64).reshape(-1, w), len(starts) * p ** (d - w)


def reference_start_count(k: int, p: int, w: int) -> int:
    """The start count from a dict of how many tuples reach each sum."""
    ways = {0: 1}
    for _ in range(w):
        step: dict[int, int] = {}
        for total, count in ways.items():
            for z in range(1, p - 2 * k + 1):
                step[total + z] = step.get(total + z, 0) + count
        ways = step
    return sum(count for total, count in ways.items() if (total // w - 1) % (2 * k) == 0)


class TestDenseStartsCountedBeforeListed:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("w, extra", [(1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
    def test_accepted_cases_keep_starts_and_r(self, k, w, extra):
        d = w + extra
        family = SetFamily(d=d, w=w, theta=(w - 1) // 2, sets=(tuple(range(w)),))
        for p in range(2 * k + 1, 2 * k + 8):
            try:
                params = DenseParams(k=k, d=d, p=p, family=family)
            except ResourceLimitError:
                continue
            starts, r = reference_starts(k, d, p, w)
            assert params._starts.dtype == starts.dtype and params._starts.shape == starts.shape
            assert params._starts.tobytes() == starts.tobytes()
            assert params.r == r and type(params.r) is int

    def test_refused_without_listing_a_start(self):
        # d = w = 6, p = 33: n = 2 * 33^6 = 2,582,935,938 is under
        # MAX_VERTICES, and 148,702,381 of the 29^6 candidate tuples are
        # starts, far past MAX_CLIQUES; listing them took minutes and gigabytes
        family = SetFamily(d=6, w=6, theta=2, sets=(tuple(range(6)),))
        count = reference_start_count(2, 33, 6)
        assert count == 148_702_381

        def refuse():
            with pytest.raises(ResourceLimitError, match=f"materialize {count} cliques"):
                DenseParams(k=2, d=6, p=33, family=family)

        start = time.perf_counter()
        _, peak = peak_bytes(refuse)
        elapsed = time.perf_counter() - start
        assert elapsed < 1 and peak < 10 * 2**20


def _decode(params: DenseParams, v: int) -> tuple[int, tuple[int, ...]]:
    layer, idx = divmod(v, params.layer_size)
    coords = []
    for power in params._powers.tolist():
        q, idx = divmod(idx, power)
        coords.append(q + 1)
    return layer, tuple(coords)


class TestLift:
    def test_shift_permutation_values(self):
        # 1-indexed form: tau_i(x) = ((x + i - 2) mod k) + 1, so tau_2(1) = 2
        # and tau_3(3) = 2
        def tau(i: int, x: int, k: int) -> int:
            return ((x + i - 2) % k) + 1

        assert tau(2, 1, 3) == 2
        assert tau(3, 3, 3) == 2
        # the lift indexes copies/slots 0-based: slot = (a + ell) % k
        for k in range(1, 6):
            for i in range(1, k + 1):
                for x in range(1, k + 1):
                    assert tau(i, x, k) - 1 == ((x - 1) + (i - 1)) % k

    def test_triangle_lift_structure(self):
        base = ClusterPackingGraph(graph=Graph(3, [(0, 1), (1, 2), (0, 2)]), clusters=(((0, 1, 2),),))
        lifted = lift_to_k_colorable(base)
        assert lifted.graph.n == 9
        assert (lifted.r, lifted.t) == (3, 1)
        # clique j * k + ell takes copy a's vertex from slot (a + ell) % k
        assert lifted.clusters[0].tolist() == [[0, 4, 8], [1, 5, 6], [2, 3, 7]]
        assert verify_cluster_packing(lifted).ok

    def test_r2_t3_k3_parameters(self):
        base = construct_lines_grouped(36, 2, 3)
        assert (base.r, base.t, base.k) == (2, 3, 3)
        lifted = lift_to_k_colorable(base)
        assert lifted.graph.n == 3 * 36
        assert (lifted.r, lifted.t, lifted.k) == (6, 3, 3)
        assert verify_cluster_packing(lifted).ok

    def test_k1_is_isomorphic_to_input(self):
        base = ClusterPackingGraph(graph=Graph(3), clusters=(((0,), (1,)),))
        lifted = lift_to_k_colorable(base)
        assert lifted.graph.n == 3
        assert np.array_equal(lifted.clusters, base.clusters)
        assert lifted.graph.num_edges == 0

    def test_lift_past_the_vertex_limit_raises_resource_limit(self):
        base = ClusterPackingGraph(Graph(2_000_000_000, [(0, 1)]), clusters=[[[0, 1]]])
        with pytest.raises(ResourceLimitError, match="lifted n = 4000000000"):
            lift_to_k_colorable(base)

    def test_lift_preserves_verification(self):
        for cpg in (construct_lines_basic(64, 2), construct_lines_grouped(64, 2, 2)):
            lifted = lift_to_k_colorable(cpg)
            assert lifted.t == cpg.t
            assert lifted.r == cpg.r * cpg.k
            assert lifted.graph.n == cpg.graph.n * cpg.k
            assert verify_cluster_packing(lifted).ok


class TestCanonicalColoring:
    def test_basic_two_colors_by_layer(self):
        cpg = construct_lines_basic(64, 2)
        col = canonical_coloring(cpg)
        assert col.num_colors == 2
        assert is_proper_coloring(cpg.graph, col)

    def test_dense_by_layer(self):
        cpg = construct_dense(DenseParams(k=2, d=7, p=5, family=fano_family(1)))
        col = canonical_coloring(cpg)
        assert col.num_colors == 2
        assert is_proper_coloring(cpg.graph, col)

    def test_lift_by_copy(self):
        base = construct_lines_grouped(36, 2, 3)
        lifted = lift_to_k_colorable(base)
        col = canonical_coloring(lifted)
        assert col.num_colors == 3
        assert is_proper_coloring(lifted.graph, col)

    def test_missing_metadata_rejected(self):
        cpg = ClusterPackingGraph(graph=Graph(2, [(0, 1)]), clusters=(((0, 1),),))
        with pytest.raises(UnsupportedInputError):
            canonical_coloring(cpg)


class TestVerifyClusterPacking:
    def test_accepts_all_constructors(self):
        for cpg in (
            construct_lines_basic(64, 2),
            construct_lines_basic(108, 3),
            construct_lines_grouped(256, 4, 2),
            construct_dense(DenseParams(k=2, d=5, p=5, family=SetFamily(
                d=5, w=3, theta=1, sets=((0, 1, 2), (2, 3, 4))
            ))),
        ):
            report = verify_cluster_packing(cpg)
            assert report.ok, str(report)

    def test_extra_edge_breaks_inducedness(self):
        cpg = construct_lines_basic(64, 2)
        # an extra edge inside cluster 0's vertex span that is not a clique edge
        vs = sorted(set(cpg.clusters[0].ravel().tolist()))
        extra = None
        for u, v in itertools.combinations(vs, 2):
            if (u, v) not in cpg.graph.edges:
                extra = (u, v)
                break
        tampered = dataclasses.replace(
            cpg, graph=Graph(64, set(cpg.graph.edges) | {extra})
        )
        report = verify_cluster_packing(tampered)
        assert not report.ok
        induced = [c for c in report.checks if c.name == "inducedness"][0]
        assert not induced.passed
        assert str(extra) in induced.detail or str(extra[0]) in induced.detail

    @pytest.mark.parametrize(
        "clusters",
        [
            (((0, 1), (2, 3)), ((0, 2),)),  # ragged
            [[0, 1]],  # 2-D
            [[[[0, 1]]]],  # 4-D
            [0, 1],  # 1-D
            [[[0.0, 1.0]]],  # not integers
            [[[0, 4]]],  # a vertex outside [0, 4)
            [[[-1, 1]]],
        ],
    )
    def test_clusters_must_be_a_t_r_k_array_of_vertices(self, clusters):
        fine = ClusterPackingGraph(Graph(4), clusters=[[[0, 1]]])
        assert fine.clusters.shape == (fine.t, fine.r, fine.k) == (1, 1, 2)
        assert not fine.clusters.flags.writeable
        with pytest.raises(ArgumentError):
            ClusterPackingGraph(Graph(4), clusters=clusters)

    @pytest.mark.parametrize("name", ["k", "r", "t"])
    def test_sizes_are_read_off_the_clusters(self, name):
        cpg = construct_lines_grouped(36, 2, 3)
        assert (cpg.t, cpg.r, cpg.k) == cpg.clusters.shape == (3, 2, 3)
        with pytest.raises(TypeError):
            dataclasses.replace(cpg, **{name: 1})

    def test_reassigned_clique_breaks_partition_checks(self):
        # moving a clique between clusters leaves them ragged, which the
        # (t, r, k) clusters array cannot hold
        cpg = construct_lines_basic(64, 2)
        clusters = [list(map(tuple, c)) for c in cpg.clusters.tolist()]
        moved = clusters[0].pop()
        clusters[1].append(moved)
        with pytest.raises(ArgumentError):
            dataclasses.replace(cpg, clusters=tuple(tuple(c) for c in clusters))

    @pytest.mark.parametrize(
        "n,r,k",
        [(64, 2, 2), (128, 2, 2), (256, 2, 4), (144, 3, 2), (400, 4, 2), (324, 3, 3)],
    )
    def test_random_valid_grouped_parameters(self, n, r, k):
        cpg = construct_lines_grouped(n, r, k)
        assert verify_cluster_packing(cpg).ok


# ---------------------------------------------------------------------------
# the set-and-dict verifier that the array passes replaced, kept as a reference
# ---------------------------------------------------------------------------


def reference_verify_cluster_packing(cpg: ClusterPackingGraph) -> list[tuple[str, bool, str]]:
    """The five checks as ``(name, passed, detail)``, computed over the
    clusters as nested tuples and over the graph's edge frozenset."""
    checks: list[CheckResult] = []
    g = cpg.graph
    clusters = tuple(tuple(map(tuple, c)) for c in cpg.clusters.tolist())

    # per-cluster edge sets (shared by checks 1 and 3)
    cluster_edges: list[set[tuple[int, int]]] = []
    for cluster in clusters:
        own: set[tuple[int, int]] = set()
        for clique in cluster:
            for a in range(len(clique)):
                for b in range(a + 1, len(clique)):
                    u, v = clique[a], clique[b]
                    own.add((u, v) if u < v else (v, u))
        cluster_edges.append(own)

    # (1) edge partition exactness
    partition_ok = True
    detail = ""
    implied: set[tuple[int, int]] = set()
    owner: dict[tuple[int, int], int] = {}
    for ci, own in enumerate(cluster_edges):
        collision = {e for e in own if e in implied}
        if collision and partition_ok:
            e = min(collision)
            partition_ok = False
            detail = f"edge {e} implied by clusters {owner[e]} and {ci}"
        implied.update(own)
        for e in own:
            owner.setdefault(e, ci)
    if partition_ok and implied != g.edges:
        partition_ok = False
        missing = g.edges - implied
        extra = implied - g.edges
        if missing:
            detail = f"graph edge {min(missing)} not covered by any cluster"
        else:
            detail = f"implied edge {min(extra)} absent from the graph"
    checks.append(CheckResult("edge-partition", partition_ok, detail))

    # (2) cluster structure: r vertex-disjoint k-cliques each
    structure_ok = True
    detail = ""
    if len(clusters) != cpg.t:
        structure_ok = False
        detail = f"expected t={cpg.t} clusters, found {len(clusters)}"
    else:
        for ci, cluster in enumerate(clusters):
            if len(cluster) != cpg.r:
                structure_ok = False
                detail = f"cluster {ci} has {len(cluster)} cliques, expected r={cpg.r}"
                break
            seen: set[int] = set()
            for clique in cluster:
                if len(set(clique)) != cpg.k:
                    structure_ok = False
                    detail = f"cluster {ci} clique {clique} is not {cpg.k} distinct vertices"
                    break
                overlap = seen.intersection(clique)
                if overlap:
                    structure_ok = False
                    detail = f"cluster {ci} reuses vertex {min(overlap)}"
                    break
                seen.update(clique)
            if not structure_ok:
                break
    checks.append(CheckResult("cluster-structure", structure_ok, detail))

    # vertex -> clusters membership (used by checks 3 and 4)
    membership: dict[int, list[int]] = {}
    for ci, cluster in enumerate(clusters):
        for clique in cluster:
            for v in clique:
                membership.setdefault(v, []).append(ci)

    # (3) inducedness: an edge with both endpoints inside a cluster's vertex
    # set must be one of that cluster's own edges
    induced_ok = True
    detail = ""
    for e in sorted(g.edges):
        mu = membership.get(e[0], ())
        mv = membership.get(e[1], ())
        common = set(mu) & set(mv)
        bad = [ci for ci in common if e not in cluster_edges[ci]]
        if bad:
            ci = min(bad)
            induced_ok = False
            detail = (
                f"edge {e} lies inside cluster {ci}'s vertex set "
                f"but is not one of its edges"
            )
            break
    checks.append(CheckResult("inducedness", induced_ok, detail))

    # (4) pairwise cluster vertex intersections <= r
    overlap_ok = True
    detail = ""
    pair_counts: dict[tuple[int, int], int] = {}
    for v, mem in membership.items():
        mem_sorted = sorted(set(mem))
        for a in range(len(mem_sorted)):
            for b in range(a + 1, len(mem_sorted)):
                key = (mem_sorted[a], mem_sorted[b])
                pair_counts[key] = pair_counts.get(key, 0) + 1
    for key in sorted(pair_counts):
        if pair_counts[key] > cpg.r:
            overlap_ok = False
            detail = (
                f"clusters {key[0]} and {key[1]} share {pair_counts[key]} "
                f"vertices > r = {cpg.r}"
            )
            break
    checks.append(CheckResult("cluster-overlap", overlap_ok, detail))

    # (5) k-colorability
    color_ok = True
    detail = ""
    if cpg.layout in ("basic", "grouped", "dense", "lifted"):
        coloring = canonical_coloring(cpg)
        if coloring.num_colors > cpg.k or not is_proper_coloring(g, coloring):
            color_ok = False
            detail = "canonical layer coloring is not a proper k-coloring"
    elif g.n <= EXACT_FALLBACK_LIMIT:
        if find_k_coloring(g, cpg.k) is None:
            color_ok = False
            detail = f"graph is not {cpg.k}-colorable (exact solver)"
    else:
        color_ok = False
        detail = "no layout metadata and graph too large for the exact fallback"
    checks.append(CheckResult("k-colorable", color_ok, detail))

    return [(c.name, c.passed, c.detail) for c in checks]


def report_rows(cpg: ClusterPackingGraph) -> list[tuple[str, bool, str]]:
    return [(c.name, c.passed, c.detail) for c in verify_cluster_packing(cpg).checks]


@functools.cache
def base_packing(name: str) -> ClusterPackingGraph:
    two_sets = SetFamily(d=5, w=3, theta=1, sets=((0, 1, 2), (2, 3, 4)))
    return {
        "basic-64-2": lambda: construct_lines_basic(64, 2),
        "basic-108-3": lambda: construct_lines_basic(108, 3),
        "grouped-64-2-2": lambda: construct_lines_grouped(64, 2, 2),
        "grouped-36-2-3": lambda: construct_lines_grouped(36, 2, 3),
        "dense": lambda: construct_dense(DenseParams(k=2, d=5, p=5, family=two_sets)),
        "lifted": lambda: lift_to_k_colorable(construct_lines_grouped(36, 2, 3)),
        "k1": lambda: ClusterPackingGraph(Graph(3), clusters=(((0,), (1,)),)),
    }[name]()


TAMPERINGS = ("drop-edge", "add-edge", "repeat-vertex", "edge-twice", "copy-cliques")


@st.composite
def tampered_packings(draw) -> ClusterPackingGraph:
    """A construction with up to three tamperings: an edge dropped, an edge
    added inside a cluster, a vertex repeated in a clique, one edge implied
    by two cliques, or cliques copied over another cluster's; the graph is
    kept, or rebuilt from the tampered cliques."""
    cpg = base_packing(draw(st.sampled_from(["basic-64-2", "basic-108-3", "grouped-64-2-2",
                                              "grouped-36-2-3", "dense", "lifted", "k1"])))
    clusters, edges = cpg.clusters.copy(), sorted(cpg.graph.edges)
    (t, r, k), index = clusters.shape, st.integers(0, 10**6)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(TAMPERINGS))
        ci, j, ci2, j2 = (draw(index) % t, draw(index) % r, draw(index) % t, draw(index) % r)
        a, b = draw(index) % k, draw(index) % k
        if kind == "drop-edge" and edges:
            edges.pop(draw(index) % len(edges))
        elif kind == "add-edge":
            vs = sorted(set(clusters[ci].ravel().tolist()))
            u, v = vs[draw(index) % len(vs)], vs[draw(index) % len(vs)]
            if u != v:
                edges = sorted(set(edges) | {(min(u, v), max(u, v))})
        elif kind == "repeat-vertex" and a != b:
            clusters[ci, j, b] = clusters[ci, j, a]
        elif kind == "edge-twice" and k >= 2 and (ci, j) != (ci2, j2):
            clusters[ci2, j2, :2] = clusters[ci, j, :2]
        elif kind == "copy-cliques" and ci != ci2:
            m = draw(st.integers(1, r))
            clusters[ci2, :m] = clusters[ci, :m]
    if draw(st.booleans()):
        edges = [(u, v) for c in clusters.tolist() for q in c
                 for u, v in itertools.combinations(sorted(q), 2) if u != v]
    return dataclasses.replace(cpg, graph=Graph(cpg.graph.n, edges), clusters=clusters)


@st.composite
def random_packings(draw) -> ClusterPackingGraph:
    """Any (t, r, k) clique array over a few vertices, with a graph made of
    some of the pairs it implies plus a few others."""
    n, t, r, k = draw(st.integers(2, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vertices = draw(st.lists(st.integers(0, n - 1), min_size=t * r * k, max_size=t * r * k))
    clusters = np.array(vertices).reshape(t, r, k)
    implied = sorted({(u, v) for q in clusters.reshape(-1, k).tolist()
                      for u, v in itertools.combinations(sorted(q), 2) if u != v})
    kept = draw(st.lists(st.booleans(), min_size=len(implied), max_size=len(implied)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = [e for e, keep in zip(implied, kept) if keep] + draw(st.lists(pair, max_size=6))
    return ClusterPackingGraph(Graph(n, edges), clusters=clusters)


class TestAgreesWithSetReference:
    @pytest.mark.parametrize("name", ["basic-64-2", "basic-108-3", "grouped-64-2-2",
                                      "grouped-36-2-3", "dense", "lifted", "k1"])
    def test_constructions(self, name):
        assert report_rows(base_packing(name)) == reference_verify_cluster_packing(base_packing(name))

    @given(tampered_packings())
    @settings(max_examples=300, deadline=None)
    def test_tampered_packings(self, cpg):
        assert report_rows(cpg) == reference_verify_cluster_packing(cpg)

    @given(random_packings())
    @settings(max_examples=500, deadline=None)
    def test_random_packings(self, cpg):
        assert report_rows(cpg) == reference_verify_cluster_packing(cpg)

    def test_every_check_fails_somewhere(self):
        # the tamperings reach each of the first four checks' failures
        cpg = base_packing("basic-64-2")
        c = cpg.clusters.copy()
        c[1, 0] = c[0, 0]  # an edge implied by clusters 0 and 1
        c[2, 1, 1] = c[2, 1, 0]  # a clique repeating a vertex
        c[4, :] = c[3, :]  # clusters 3 and 4 share 4 > r vertices
        extra = (int(c[5, 0, 0]), int(c[5, 1, 1]))  # inside cluster 5, not its edge
        tampered = dataclasses.replace(
            cpg, clusters=c, graph=Graph(64, sorted(cpg.graph.edges | {extra}))
        )
        rows = report_rows(tampered)
        assert [passed for _, passed, _ in rows[:4]] == [False] * 4
        assert rows == reference_verify_cluster_packing(tampered)


class TestCpgSerialization:
    def test_round_trip(self, tmp_path):
        cpg = construct_lines_basic(64, 2)
        path = tmp_path / "a.cpg"
        write_cpg(cpg, str(path))
        again = read_cpg(str(path))
        assert again.graph == cpg.graph
        assert np.array_equal(again.clusters, cpg.clusters)
        assert (again.k, again.r, again.t, again.layout) == (2, 2, 32, "basic")
        path2 = tmp_path / "b.cpg"
        write_cpg(again, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_reader_rejects_edge_collisions(self, tmp_path):
        path = tmp_path / "bad.cpg"
        path.write_text(
            "#cpg v1 n=4 k=2 r=1 t=2 layout=basic\nC 0 0 0 1\nC 1 0 1 0\n"
        )
        with pytest.raises(FormatError):
            read_cpg(str(path))

    def test_reader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.cpg"
        path.write_text("#cpg v1 n=4 k=2\nC 0 0 0 1\n")
        with pytest.raises(FormatError):
            read_cpg(str(path))

    @pytest.mark.parametrize("layout", [None, "other"])
    def test_writer_refuses_an_unknown_layout(self, tmp_path, layout):
        # the header would name a construction whose layer coloring this packing lacks
        cpg = ClusterPackingGraph(Graph(4, [(0, 1), (2, 3)]), clusters=[[[0, 1], [2, 3]]], layout=layout)
        assert verify_cluster_packing(cpg).ok
        path = tmp_path / "a.cpg"
        with pytest.raises(ArgumentError, match=f"layout {layout!r}"):
            write_cpg(cpg, str(path))
        assert not path.exists()

    def test_layout_survives_round_trip_for_coloring(self, tmp_path):
        lifted = lift_to_k_colorable(construct_lines_grouped(36, 2, 3))
        path = tmp_path / "lift.cpg"
        write_cpg(lifted, str(path))
        again = read_cpg(str(path))
        assert again.layout == "lifted"
        col = canonical_coloring(again)
        assert col.num_colors == 3
        assert is_proper_coloring(again.graph, col)
