from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from streamcolor import (
    Coloring,
    DenseParams,
    Graph,
    LevelPlan,
    LevelSpec,
    RecursiveInstance,
    SimultaneousInstance,
    TwoPlayerInstance,
    clusterpack,
    construct_dense,
    construct_lines_basic,
    construct_lines_grouped,
    default_level_plan,
    fano_family,
    find_k_coloring,
    gen_recursive,
    gen_simultaneous,
    gen_two_player,
    is_proper_coloring,
    instances,
    lift_to_k_colorable,
    missing_clique_pair,
    read_instance,
    verify_cluster_packing,
    verify_instance,
    witness_coloring,
    write_instance,
)
from streamcolor import exact
from streamcolor.cli import main as cli_main
from streamcolor.errors import ArgumentError, FormatError, ResourceLimitError
from streamcolor.clusterpack import LineLayout
from streamcolor.instances import (
    _validate_level,
    sample_intersecting_sets,
)
from streamcolor.seeds import rng_for


class TestTwoPlayer:
    def test_ans1_spec_is_clique(self):
        inst = gen_two_player(64, 2, seed=0, ans_override=1)
        assert len(inst.spec) == 4
        assert missing_clique_pair(inst.union_graph(), inst.spec) is None

    def test_ans0_exact_chromatic_at_most_2k(self):
        inst = gen_two_player(64, 2, seed=0, ans_override=0)
        assert find_k_coloring(inst.union_graph(), 4) is not None

    def test_parts_edge_disjoint(self):
        for seed in range(5):
            inst = gen_two_player(64, 2, seed=seed)
            assert not set(map(tuple, inst.e1.tolist())) & set(map(tuple, inst.e2.tolist()))

    def test_witness_coloring(self):
        inst = gen_two_player(64, 2, seed=3, ans_override=0)
        w = witness_coloring(inst)
        assert w.num_colors <= 4
        assert is_proper_coloring(inst.union_graph(), w)

    def test_witness_requires_ans0(self):
        inst = gen_two_player(64, 2, seed=3, ans_override=1)
        with pytest.raises(ArgumentError):
            witness_coloring(inst)

    def test_deterministic_in_seed(self):
        a = gen_two_player(64, 2, seed=11)
        b = gen_two_player(64, 2, seed=11)
        assert a.i_star == b.i_star and np.array_equal(a.x, b.x)
        assert np.array_equal(a.e1, b.e1) and np.array_equal(a.e2, b.e2)

    def test_ans_is_uniform(self):
        hits = sum(gen_two_player(16, 2, seed=s).ans for s in range(1000))
        assert 400 <= hits <= 600  # 0.5 +- 0.1

    def test_verify_50_seeds_per_branch_smallest_params(self):
        for seed in range(50):
            for ans in (0, 1):
                inst = gen_two_player(16, 2, seed=seed, ans_override=ans)
                report = verify_instance(inst)
                assert report.ok, str(report)

    def test_special_clique_bounds_chromatic_number(self):
        # a K_{k^2} on the special set forces chi(union) >= k^2
        from streamcolor import chromatic_number

        inst = gen_two_player(64, 2, seed=12, ans_override=1)
        union = inst.union_graph()
        assert chromatic_number(union, cap=len(inst.spec) - 1) is None

    def test_tampered_spec_clique_detected(self):
        inst = gen_two_player(64, 2, seed=4, ans_override=1)
        victim = (inst.spec[0], inst.spec[1])
        tampered = dataclasses.replace(
            inst, e1=inst.e1[(inst.e1 != victim).any(1)],
            e2=inst.e2[(inst.e2 != victim).any(1)],
        )
        report = verify_instance(tampered)
        assert not report.ok
        gap = [c for c in report.checks if c.name == "gap-clique"][0]
        assert not gap.passed and str(victim[0]) in gap.detail

    @pytest.mark.parametrize("n, k", [(16, 2), (64, 2), (108, 3), (512, 4)])
    def test_host_is_the_basic_lines_layout(self, n, k):
        inst = gen_two_player(n, k, seed=3)
        cpg = construct_lines_basic(n, k)
        assert np.array_equal(inst.host.clusters(), cpg.clusters)
        assert inst.t == cpg.t

    def test_edge_guard_refuses_before_drawing(self, monkeypatch):
        # gen_two_player(64, 2) holds 32 clusters of two one-edge cliques
        monkeypatch.setattr(clusterpack, "MAX_EDGES", 64)
        assert verify_instance(gen_two_player(64, 2, seed=5)).ok
        monkeypatch.setattr(clusterpack, "MAX_EDGES", 63)

        def no_draws(*path):
            raise AssertionError("the guard must refuse before any draw")

        monkeypatch.setattr(instances, "rng_for", no_draws)
        with pytest.raises(ResourceLimitError):
            gen_two_player(64, 2, seed=5)


class TestRecursive:
    def test_p2_is_exactly_two_player(self):
        direct = gen_two_player(64, 2, seed=9)
        viaplan = gen_recursive(2, 2, plan=LevelPlan(n2=64), seed=9)
        assert np.array_equal(viaplan.e1, direct.e1) and np.array_equal(viaplan.e2, direct.e2)
        assert viaplan.ans == direct.ans

    def test_default_plan_matches_worked_example(self):
        plan = default_level_plan(3, 2)
        assert plan.n2 == 64
        assert plan.levels[0].n == 262144  # (k * 4 n2)^2

    def test_p3_ans1_spec_is_k8(self):
        inst = gen_recursive(3, 2, seed=1, ans_override=1)
        assert len(inst.spec) == 8
        assert missing_clique_pair(inst.union_graph(), inst.spec) is None

    def test_p3_ans0_witness(self):
        inst = gen_recursive(3, 2, seed=1, ans_override=0)
        w = witness_coloring(inst)
        assert w.num_colors <= 6
        assert is_proper_coloring(inst.union_graph(), w)

    def test_witness_palette_split(self):
        # T-clique vertices only use the first k(p-1) colors
        inst = gen_recursive(3, 2, seed=2, ans_override=0)
        w = witness_coloring(inst)
        istar_cliques = inst.istar_cliques()
        k, p = inst.k, inst.p
        raw = k * (p - 1)  # fresh palette starts here before canonicalization
        pushed = {
            int(w.colors[v])
            for j in inst.sigma
            for v in istar_cliques[j]
        }
        # canonicalization may relabel, so compare class counts instead:
        # pushed classes and the rest must not exceed k(p-1) and k
        assert len(pushed) <= raw
        rest = set(w.colors.tolist()) - pushed
        assert len(rest) <= k

    def test_intersection_rederivation(self):
        inst = gen_recursive(3, 2, seed=5)
        inter = tuple(sorted(set(inst.sets[inst.i_star]) & set(inst.big_t)))
        assert inter == tuple(inst.intersection.tolist())
        assert len(inter) == inst.k ** (inst.p - 1)

    def test_row_balance(self):
        inst = gen_recursive(3, 2, seed=6)
        for i, s in enumerate(inst.sets):
            assert sum(int(inst.x[i, j]) for j in s) == inst.r // 8

    def test_spec_is_union_of_indexed_cliques(self):
        inst = gen_recursive(3, 2, seed=7)
        cliques = inst.istar_cliques()
        expected = sorted(v for j in inst.intersection for v in cliques[j])
        assert list(inst.spec) == expected

    def test_verify_50_seeds_per_branch_smallest_params(self):
        plan = LevelPlan(n2=16, levels=(LevelSpec(n=(2 * 64) ** 2, t=4),))
        for seed in range(50):
            for ans in (0, 1):
                inst = gen_recursive(3, 2, plan=plan, seed=seed, ans_override=ans)
                report = verify_instance(inst)
                assert report.ok, str(report)

    def test_infeasible_plan_named(self):
        # r_3/8 = 8 < k^2 is fine for k=2 but not k=3
        plan = LevelPlan(n2=16, levels=(LevelSpec(n=(2 * 64) ** 2, t=4),))
        with pytest.raises(ArgumentError) as err:
            gen_recursive(3, 3, plan=plan, seed=0)
        assert "level 3" in str(err.value)

    def test_host_too_small_named(self):
        plan = LevelPlan(n2=64, levels=(LevelSpec(n=1024, t=4),))
        with pytest.raises(ArgumentError) as err:
            gen_recursive(3, 2, plan=plan, seed=0)
        assert "level 3" in str(err.value)

    def test_level_past_vertex_guard_refused_before_drawing(self, tmp_path, monkeypatch):
        # every level-4 host needs n_4 >= 2^16 k^18 >= 2^34 vertices, past the guard
        def no_draws(*path):
            raise AssertionError("the guard must refuse before any draw")

        monkeypatch.setattr(instances, "rng_for", no_draws)
        start = time.perf_counter()
        for p in (4, 5):
            with pytest.raises(ArgumentError, match=f"p = {p} has no plan: .* >= 17179869184"):
                gen_recursive(p, 2, seed=1)
        assert time.perf_counter() - start < 1.0
        out = tmp_path / "rec.json"
        assert cli_main(["gen", "recursive", "--p", "4", "--k", "2", "--seed", "1", "-o", str(out)]) == 2
        assert not out.exists()

    def test_edge_guard_refuses_before_drawing(self, tmp_path, monkeypatch):
        # SMALL_PLAN's level 3 materializes t = 4 clusters, and player 1 holds
        # r/8 = 8 one-edge cliques of each: 32 edges
        gen = ["gen", "recursive", "--p", "3", "--k", "2", "--seed", "5", "--n2", "16",
               "--level-n", str((2 * 64) ** 2), "--level-t", "4"]
        path, again = tmp_path / "rec.json", tmp_path / "again.json"
        monkeypatch.setattr(clusterpack, "MAX_EDGES", 32)
        inst = gen_recursive(3, 2, plan=SMALL_PLAN, seed=5)
        assert len(inst.e1) == 32 and verify_instance(inst).ok
        assert cli_main([*gen, "-o", str(path)]) == 0
        monkeypatch.setattr(clusterpack, "MAX_EDGES", 31)

        def no_draws(*path):
            raise AssertionError("the guard must refuse before any draw")

        monkeypatch.setattr(instances, "rng_for", no_draws)
        with pytest.raises(ResourceLimitError, match="level 3: t=4 clusters of r=8 cliques of k=2 imply 32 edges"):
            gen_recursive(3, 2, plan=SMALL_PLAN, seed=5)
        assert cli_main([*gen, "-o", str(again)]) == 2 and not again.exists()
        assert cli_main(["verify", "instance", "--file", str(path)]) == 3

    def test_oversized_level_refused_at_the_real_guard(self, monkeypatch):
        # 400,000 clusters of r/8 = 32 one-edge cliques: 12.8 M edges
        def no_draws(*path):
            raise AssertionError("the guard must refuse before any draw")

        monkeypatch.setattr(instances, "rng_for", no_draws)
        gen = ["gen", "recursive", "--p", "3", "--k", "2", "--level-n", "1048576", "--level-t", "400000"]
        assert cli_main(gen) == 2
        plan = default_level_plan(3, 2, level_n=[1048576], level_t=[400000])
        with pytest.raises(ResourceLimitError, match="imply 12800000 edges"):
            gen_recursive(3, 2, plan=plan)

    def test_intersection_uniform_over_subsets(self):
        # the helper behind Part 1 (iv): S cap T uniform over subsets of T
        counts = collections.Counter()
        draws = 6000
        for i in range(draws):
            rng = rng_for(123, i)
            big_t, inter, _ = sample_intersecting_sets(rng, 12, 3, 2)
            positions = tuple(sorted(big_t.tolist().index(j) for j in inter))
            counts[positions] += 1
        assert len(counts) == 3  # C(3, 2) position patterns
        _, pvalue = stats.chisquare(list(counts.values()))
        assert pvalue > 1e-4


@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.data())
@settings(max_examples=80, deadline=None)
def test_intersecting_sets_are_sorted_int64_arrays(seed, universe, data):
    size = data.draw(st.integers(0, universe))
    overlap = data.draw(st.integers(max(0, 2 * size - universe), size))
    big_t, inter, s = sample_intersecting_sets(rng_for(seed, 0), universe, size, overlap)
    for got in (big_t, inter, s):
        assert got.dtype == np.int64 and (np.diff(got) > 0).all()
        assert ((0 <= got) & (got < universe)).all()
    assert (len(big_t), len(inter), len(s)) == (size, overlap, size)
    assert np.array_equal(np.intersect1d(big_t, s), inter)


class TestSimultaneous:
    def test_parameter_formulas(self):
        inst = gen_simultaneous(4, 10, seed=0)
        assert (inst.n, inst.p, inst.t) == (22, 6, 100)

    def test_theta1_clique(self):
        inst = gen_simultaneous(4, 10, seed=1, theta_override=1)
        assert missing_clique_pair(inst.union_graph(), inst.v_clique) is None

    def test_theta0_exact_three_colorable(self):
        inst = gen_simultaneous(4, 10, seed=1, theta_override=0)
        assert find_k_coloring(inst.union_graph(), 3) is not None

    def test_witness_three_coloring(self):
        for k, n_base in ((4, 10), (5, 8)):
            inst = gen_simultaneous(k, n_base, seed=2, theta_override=0)
            w = witness_coloring(inst)
            assert w.num_colors <= 3
            assert is_proper_coloring(inst.union_graph(), w)

    def test_witness_requires_theta0(self):
        inst = gen_simultaneous(4, 10, seed=2, theta_override=1)
        with pytest.raises(ArgumentError):
            witness_coloring(inst)

    def test_range_validation(self):
        with pytest.raises(ArgumentError):
            gen_simultaneous(3, 10, seed=0)
        with pytest.raises(ArgumentError):
            gen_simultaneous(8, 4, seed=0)  # k > 2 (n_base - 1)

    def test_local_graphs_bipartite_by_construction(self):
        # player i's part joins the left side plus the ends of its own
        # clique pair (a, b) to the right side: left ids and clique vertex a
        # on one side, right ids and clique vertex b on the other
        inst = gen_simultaneous(4, 6, seed=3)
        nb, sigma = inst.n_base, inst.sigma
        clique = sigma[2 * (nb - 1) :]
        for i, ((a, b), part) in enumerate(zip(itertools.combinations(range(4), 2), inst.player_edges)):
            left = set(sigma[: nb - 1]) | {clique[a]}
            right = set(sigma[nb - 1 : 2 * (nb - 1)]) | {clique[b]}
            for u, v in part.tolist():
                assert (u in left and v in right) or (v in left and u in right)

    @pytest.mark.parametrize("k, n_base", [(4, 3), (4, 10), (5, 8)])
    def test_union_graph_is_the_simple_union_of_the_parts(self, k, n_base):
        inst = gen_simultaneous(k, n_base, seed=6)
        assert inst.union_graph() == Graph(inst.n, np.concatenate(inst.player_edges))

    def test_union_is_multigraph(self):
        # overlapping player edges must accumulate multiplicity
        found = False
        for seed in range(20):
            inst = gen_simultaneous(4, 5, seed=seed)
            _, counts = np.unique(np.concatenate(inst.player_edges), axis=0, return_counts=True)
            if (counts > 1).any():
                found = True
                break
        assert found

    def test_bipartite_part_stays_bipartite(self):
        for seed in range(5):
            inst = gen_simultaneous(4, 8, seed=seed)
            report = verify_instance(inst)
            bip = [c for c in report.checks if c.name == "bipartite-part"][0]
            assert bip.passed

    def test_verify_50_seeds_per_branch_smallest_params(self):
        for seed in range(50):
            for theta in (0, 1):
                inst = gen_simultaneous(4, 3, seed=seed, theta_override=theta)
                report = verify_instance(inst)
                assert report.ok, str(report)

    def test_edge_guard_refuses_before_drawing(self, tmp_path, monkeypatch):
        # gen_simultaneous(4, 6) may hold p * n_base^2 = 6 * 36 = 216 edges
        gen = ["gen", "simultaneous", "--k", "4", "--n-base", "6", "--seed", "5"]
        path, again = tmp_path / "sim.json", tmp_path / "again.json"
        monkeypatch.setattr(clusterpack, "MAX_EDGES", 216)
        assert cli_main([*gen, "-o", str(path)]) == 0
        assert cli_main(["verify", "instance", "--file", str(path)]) == 0
        monkeypatch.setattr(clusterpack, "MAX_EDGES", 215)

        def no_draws(*path):
            raise AssertionError("the guard must refuse before any draw")

        monkeypatch.setattr(instances, "rng_for", no_draws)
        with pytest.raises(ResourceLimitError):
            gen_simultaneous(4, 6, seed=5)
        assert cli_main([*gen, "-o", str(again)]) == 2 and not again.exists()
        assert cli_main(["verify", "instance", "--file", str(path)]) == 3

    def test_tampered_part_detected(self):
        inst = gen_simultaneous(4, 6, seed=4)
        parts = (inst.player_edges[0][1:],) + inst.player_edges[1:]
        report = verify_instance(dataclasses.replace(inst, player_edges=parts))
        relabel = [c for c in report.checks if c.name == "relabel-consistency"][0]
        assert not relabel.passed

    def test_tampered_matrix_detected(self):
        inst = gen_simultaneous(4, 6, seed=4, theta_override=1)
        x = inst.x.copy()
        x[0, inst.j_star] ^= 1
        tampered = dataclasses.replace(inst, x=x)
        report = verify_instance(tampered)
        assert not report.ok
        anchor = [c for c in report.checks if c.name == "theta-anchoring"][0]
        assert not anchor.passed


# ---------------------------------------------------------------------------
# the tuple-and-loop generators that the array builders replaced, kept as
# references: each returns its player parts as sorted-or-drawn edge tuples
# ---------------------------------------------------------------------------


def reference_join(acc, clique_a, clique_b):
    for u in sorted(set(clique_a)):
        for v in sorted(set(clique_b)):
            acc.append((u, v) if u < v else (v, u))
    return acc


def reference_clique_edges(acc, clique):
    for a in range(len(clique)):
        for b in range(a + 1, len(clique)):
            u, v = clique[a], clique[b]
            acc.append((u, v) if u < v else (v, u))
    return acc


def reference_two_player(n, k, seed=None, ans_override=None):
    layout = LineLayout(n=n, k=k, r=k)
    clusters = [layout.cluster(i).tolist() for i in range(layout.t_max)]
    rng = rng_for(seed, 10)
    i_star = int(rng.integers(len(clusters)))
    x = rng.integers(0, 2, size=len(clusters)).astype(np.uint8)
    if ans_override is not None:
        x[i_star] = ans_override
    e1, e2 = [], []
    for i in range(len(clusters)):
        if x[i]:
            for clique in clusters[i]:
                reference_clique_edges(e1, clique)
    cliques = clusters[i_star]
    for a in range(len(cliques)):
        for b in range(a + 1, len(cliques)):
            reference_join(e2, cliques[a], cliques[b])
    spec = tuple(sorted(v for clique in cliques for v in clique))
    return (tuple(sorted(set(e1))), tuple(sorted(set(e2)))), spec, int(x[i_star])


def reference_recursive(p, k, plan, seed=None, ans_override=None):
    if p == 2:
        return reference_two_player(plan.n2, k, seed=seed, ans_override=ans_override)
    rng = rng_for(seed, 20, p)
    ans = int(rng.integers(2)) if ans_override is None else int(ans_override)
    inner_n = plan.n2 if p == 3 else plan.levels[p - 4].n
    spec_level = plan.levels[p - 3]
    r = 4 * inner_n
    layout = _validate_level(p, k, spec_level.n, r, spec_level.t)
    t, m = spec_level.t, k ** (p - 1)
    cluster_ids = tuple(sorted(int(c) for c in rng.choice(layout.t_max, size=t, replace=False)))
    i_star = int(rng.integers(t))
    big_t, intersection, s_istar = sample_intersecting_sets(rng, r, r // 4, m)
    sets, x = [], np.zeros((t, r), dtype=np.uint8)
    for i in range(t):
        if i == i_star:
            s_i = s_istar
        else:
            s_i = tuple(sorted(int(j) for j in rng.choice(r, size=r // 4, replace=False)))
        sets.append(s_i)
        if i == i_star:
            forced = list(intersection)
            free = sorted(set(s_i) - set(forced))
            if ans == 1:
                extra = rng.choice(len(free), size=r // 8 - m, replace=False)
                ones = forced + [free[int(idx)] for idx in extra]
            else:
                extra = rng.choice(len(free), size=r // 8, replace=False)
                ones = [free[int(idx)] for idx in extra]
        else:
            pick = rng.choice(len(s_i), size=r // 8, replace=False)
            ones = [s_i[int(idx)] for idx in pick]
        x[i, ones] = 1
        out_cols = sorted(set(range(r)) - set(s_i))
        x[i, out_cols] = rng.integers(0, 2, size=len(out_cols)).astype(np.uint8)
    e1 = []
    for i in range(t):
        for j in sets[i]:
            if x[i, j]:
                reference_clique_edges(e1, layout.cluster(cluster_ids[i])[j].tolist())
    inner_plan = LevelPlan(n2=plan.n2, levels=plan.levels[: p - 3])
    inner_parts, inner_spec, _ = reference_recursive(p - 1, k, inner_plan, seed=seed, ans_override=ans)
    others = [v for v in range(inner_n) if v not in set(inner_spec)]
    spec_targets = [intersection[int(i)] for i in rng.permutation(m)]
    pool = sorted(set(big_t) - set(intersection))
    rest_targets = [pool[int(i)] for i in rng.permutation(len(pool))]
    sigma = dict(zip(sorted(inner_spec), spec_targets)) | dict(zip(others, rest_targets))
    istar_cliques = layout.cluster(cluster_ids[i_star]).tolist()
    join_parts = []
    for part in inner_parts:
        acc = []
        for u, v in part:
            reference_join(acc, istar_cliques[sigma[u]], istar_cliques[sigma[v]])
        join_parts.append(tuple(sorted(set(acc))))
    spec = tuple(sorted(v for j in intersection for v in istar_cliques[j]))
    return (tuple(sorted(set(e1))),) + tuple(join_parts), spec, ans


def reference_simultaneous(k, n_base, seed=None, theta_override=None):
    n, p, t = k + 2 * (n_base - 1), k * (k - 1) // 2, n_base * n_base
    rng = rng_for(seed, 30)
    j_star = int(rng.integers(t))
    theta = int(rng.integers(2)) if theta_override is None else int(theta_override)
    x = rng.integers(0, 2, size=(p, t)).astype(np.uint8)
    x[:, j_star] = theta
    u_star, v_star = divmod(j_star, n_base)
    sigma = tuple(int(v) for v in rng.permutation(n))
    left_others = [a for a in range(n_base) if a != u_star]
    right_others = [b for b in range(n_base) if b != v_star]
    left_id = {a: sigma[idx] for idx, a in enumerate(left_others)}
    right_id = {b: sigma[(n_base - 1) + idx] for idx, b in enumerate(right_others)}
    clique_ids = [sigma[2 * (n_base - 1) + i] for i in range(k)]
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    player_edges = []
    for i in range(p):
        part = []
        for j in range(t):
            if x[i, j]:
                a, b = divmod(j, n_base)
                gu = clique_ids[pairs[i][0]] if a == u_star else left_id[a]
                gv = clique_ids[pairs[i][1]] if b == v_star else right_id[b]
                part.append((gu, gv) if gu < gv else (gv, gu))
        player_edges.append(tuple(part))
    return tuple(player_edges), tuple(sorted(clique_ids)), theta


def rows_of(inst) -> list[list[list[int]]]:
    return [part.tolist() for part in inst.edge_parts()]


SMALL_PLAN = LevelPlan(n2=16, levels=(LevelSpec(n=(2 * 64) ** 2, t=4),))
seeds, bits = st.integers(0, 2**32 - 1), st.sampled_from([None, 0, 1])


class TestAgreesWithLoopReferences:
    """Every player part matches the reference generator row for row."""

    @given(st.sampled_from([(16, 2), (64, 2), (108, 3)]), seeds, bits)
    @settings(max_examples=60, deadline=None)
    def test_two_player(self, nk, seed, ans):
        inst = gen_two_player(*nk, seed=seed, ans_override=ans)
        parts, spec, answer = reference_two_player(*nk, seed=seed, ans_override=ans)
        assert rows_of(inst) == [[list(e) for e in part] for part in parts]
        assert (tuple(inst.spec.tolist()), inst.ans) == (spec, answer)

    @given(st.sampled_from([SMALL_PLAN, default_level_plan(3, 2)]), seeds, bits)
    @settings(max_examples=30, deadline=None)
    def test_recursive(self, plan, seed, ans):
        inst = gen_recursive(3, 2, plan=plan, seed=seed, ans_override=ans)
        parts, spec, answer = reference_recursive(3, 2, plan, seed=seed, ans_override=ans)
        assert rows_of(inst) == [[list(e) for e in part] for part in parts]
        assert (tuple(inst.spec.tolist()), inst.ans) == (spec, answer)

    @given(st.sampled_from([(4, 3), (4, 6), (4, 10), (5, 4), (5, 8), (6, 5)]), seeds, bits)
    @settings(max_examples=60, deadline=None)
    def test_simultaneous(self, kn, seed, theta):
        inst = gen_simultaneous(*kn, seed=seed, theta_override=theta)
        parts, v_clique, answer = reference_simultaneous(*kn, seed=seed, theta_override=theta)
        assert rows_of(inst) == [[list(e) for e in part] for part in parts]
        assert (tuple(inst.v_clique.tolist()), inst.theta) == (v_clique, answer)

    @given(seeds, st.integers(1, 4), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_bicliques(self, seed, k, count):
        rng = rng_for(seed, 0)
        cliques = rng.choice(60, size=(count, k), replace=False)
        joins = np.array([rng.choice(count, size=2, replace=False) for _ in range(3)])
        expected = []
        for a, b in joins:
            reference_join(expected, cliques[a].tolist(), cliques[b].tolist())
        got = instances._bicliques(60, cliques, joins)
        assert got.tolist() == [list(e) for e in sorted(set(expected))]


def test_bicliques_two_by_two():
    cliques = np.array([[0, 1], [2, 3]])
    got = instances._bicliques(4, cliques, np.array([[0, 1]]))
    assert got.tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]


# ---------------------------------------------------------------------------
# the per-vertex witness loops that the array writes replaced, kept as
# references; like the witnesses, each reads only the instance's structure
# ---------------------------------------------------------------------------


def reference_witness_two_player(inst):
    k = inst.k
    layer_size = inst.n // k
    colors = k + (np.arange(inst.n, dtype=np.int64) // layer_size)
    for j, clique in enumerate(inst.host.cluster(inst.i_star)):
        for v in clique:
            colors[v] = j
    return Coloring.from_array(colors)


def reference_witness_recursive(inst):
    if isinstance(inst, TwoPlayerInstance):
        return reference_witness_two_player(inst)
    k, p = inst.k, inst.p
    inner_colors = reference_witness_recursive(inst.inner)
    layer_size = inst.n // k
    colors = k * (p - 1) + (np.arange(inst.n, dtype=np.int64) // layer_size)
    istar_cliques = inst.istar_cliques().tolist()
    for v in range(len(inst.sigma)):
        j = inst.sigma[v]
        c = int(inner_colors.colors[v])
        for w in istar_cliques[j]:
            colors[w] = c
    return Coloring.from_array(colors)


def reference_witness_simultaneous(inst):
    colors = np.zeros(inst.n, dtype=np.int64)
    left = set(inst.sigma[: inst.n_base - 1])
    right = set(inst.sigma[inst.n_base - 1 : 2 * (inst.n_base - 1)])
    for v in range(inst.n):
        if v in left:
            colors[v] = 0
        elif v in right:
            colors[v] = 1
        else:
            colors[v] = 2
    return Coloring.from_array(colors)


def cleared(inst):
    """`inst` with its answer bit, and those of its inner instances, set to 0."""
    if isinstance(inst, SimultaneousInstance):
        return dataclasses.replace(inst, theta=0)
    if isinstance(inst, RecursiveInstance):
        return dataclasses.replace(inst, ans=0, inner=cleared(inst.inner))
    return dataclasses.replace(inst, ans=0)


class TestWitnessesMatchLoopReferences:
    """At either bit, the witness of the instance's structure equals the loop
    reference; with the bit set, both the witness and the gap check refuse it."""

    @staticmethod
    def check(inst, bit, reference):
        if bit:
            with pytest.raises(ArgumentError):
                witness_coloring(inst)
        inst = cleared(inst)
        got, want = witness_coloring(inst), reference(inst)
        assert got == want and got.num_colors == want.num_colors

    @given(st.sampled_from([(16, 2), (64, 2), (108, 3)]), seeds, st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_two_player(self, nk, seed, bit):
        inst = gen_two_player(*nk, seed=seed, ans_override=bit)
        self.check(inst, bit, reference_witness_two_player)

    @given(st.sampled_from([SMALL_PLAN, default_level_plan(3, 2)]), seeds, st.sampled_from([0, 1]))
    @settings(max_examples=30, deadline=None)
    def test_recursive(self, plan, seed, bit):
        inst = gen_recursive(3, 2, plan=plan, seed=seed, ans_override=bit)
        self.check(inst, bit, reference_witness_recursive)

    @given(st.sampled_from([(4, 3), (4, 6), (4, 10), (5, 8), (6, 5)]), seeds, st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_simultaneous(self, kn, seed, theta):
        inst = gen_simultaneous(*kn, seed=seed, theta_override=theta)
        self.check(inst, theta, reference_witness_simultaneous)


class TestReportText:
    """The report rows of one tampered instance per family, frozen as text."""

    def test_two_player_missing_clique_edge(self):
        inst = gen_two_player(64, 2, seed=4, ans_override=1)
        victim = inst.spec[:2]
        tampered = dataclasses.replace(
            inst, e1=inst.e1[(inst.e1 != victim).any(1)], e2=inst.e2[(inst.e2 != victim).any(1)]
        )
        assert str(verify_instance(tampered)).splitlines() == [
            "player1-edges: pass",
            "player2-edges: FAIL (e2 mismatch, e.g. [(14, 15)])",
            "edge-disjoint: pass",
            "ans-bit: pass",
            "special-set: pass",
            "gap-clique: FAIL (special set misses edge (14, 15))",
        ]

    def test_two_player_shared_edge(self):
        # player 1 also holds two of player 2's edges, the larger key first
        inst = gen_two_player(64, 2, seed=4, ans_override=1)
        tampered = dataclasses.replace(inst, e1=np.concatenate((inst.e1, inst.e2[3:1:-1])))
        assert str(verify_instance(tampered)).splitlines() == [
            "player1-edges: FAIL (e1 mismatch, e.g. [(15, 46)])",
            "player2-edges: pass",
            "edge-disjoint: FAIL (shared edge [(15, 46)])",
            "ans-bit: pass",
            "special-set: pass",
            "gap-clique: pass",
        ]

    def test_recursive_unbalanced_row(self):
        inst = gen_recursive(3, 2, seed=5, ans_override=1)
        x = inst.x.copy()
        x[1, list(inst.sets[1])] = 1
        tampered = dataclasses.replace(inst, x=x)
        assert str(verify_instance(tampered)).splitlines() == [
            "player1-edges: FAIL (e1 mismatch, e.g. [(24582, 156166)])",
            "player2-edges: pass",
            "player3-edges: pass",
            "eq1-chain: pass",
            "intersection-size: pass",
            "set-sizes: pass",
            "row-balance: FAIL (row 1 has 64 ones inside S_i, expected 32)",
            "answer-anchoring: pass",
            "special-set: pass",
            "sigma-bijection: pass",
            "gap-clique: pass",
        ] + [f"inner-{name}: pass" for name in (
            "player1-edges", "player2-edges", "edge-disjoint", "ans-bit", "special-set", "gap-clique"
        )]

    @pytest.mark.parametrize("bit", [0, 1])
    def test_recursive_player_parts_compared(self, bit):
        inst = gen_recursive(3, 2, seed=5, ans_override=bit)
        assert verify_instance(inst).ok
        failed = [c.name for c in verify_instance(dataclasses.replace(inst, e1=inst.e1[1:])).checks
                  if not c.passed]
        assert failed == ["player1-edges"]
        for i, part in enumerate(inst.join_parts):
            joins = inst.join_parts[:i] + (part[5:],) + inst.join_parts[i + 1:]
            report = verify_instance(dataclasses.replace(inst, join_parts=joins))
            assert [c.name for c in report.checks if not c.passed][0] == f"player{i + 2}-edges"
            assert not report.ok
        fewer = dataclasses.replace(inst, join_parts=inst.join_parts[:1])
        failed = [c.name for c in verify_instance(fewer).checks if not c.passed]
        assert failed[0] == "player3-edges"

    def test_simultaneous_flipped_theta(self):
        inst = gen_simultaneous(4, 6, seed=5, theta_override=0)
        assert str(verify_instance(dataclasses.replace(inst, theta=1))).splitlines() == [
            "theta-anchoring: FAIL (some x[i, j*] != theta)",
            "relabel-consistency: pass",
            "bipartite-part: pass",
            "gap-clique: FAIL (v_clique misses edge (4, 6))",
        ]


class TestNoEdgeFrozenset:
    def test_verifiers_never_read_graph_edges(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("the verifiers must read edge arrays, not Graph.edges")

        monkeypatch.setattr(Graph, "edges", property(forbidden))
        grouped = construct_lines_grouped(36, 2, 3)
        packings = [
            construct_lines_basic(64, 2),
            construct_lines_basic(108, 3),
            grouped,
            construct_dense(DenseParams(k=2, d=7, p=5, family=fano_family(3))),
            lift_to_k_colorable(grouped),
        ]
        basic = packings[0]
        clusters = basic.clusters.copy()
        clusters[1] = clusters[0]  # fails checks 1 and 4
        clusters[2, 0, 1] = clusters[2, 0, 0]  # fails check 2
        extra = sorted(clusters[3, :, 0].tolist())  # fails checks 3 and 5
        graph = Graph(basic.graph.n, np.concatenate((basic.graph.edge_array(), [extra])))
        tampered = dataclasses.replace(basic, clusters=clusters, graph=graph)
        for cpg in packings:
            assert verify_cluster_packing(cpg).ok
        assert not any(c.passed for c in verify_cluster_packing(tampered).checks)
        for bit in (0, 1):
            for inst in (
                gen_two_player(64, 2, seed=1, ans_override=bit),
                gen_recursive(3, 2, plan=SMALL_PLAN, seed=1, ans_override=bit),
                gen_simultaneous(4, 6, seed=1, theta_override=bit),
            ):
                assert verify_instance(inst).ok
        victim = gen_two_player(64, 2, seed=4, ans_override=1)
        cut = dataclasses.replace(victim, e2=victim.e2[1:])
        assert not verify_instance(cut).ok


class TestVerifyCallsNoSolver:
    def test_verify_instance_reads_certificates_only(self, monkeypatch):
        # every exact or greedy solver raises wherever a streamcolor module binds it
        solvers = [getattr(exact, name)
                   for name in ("find_k_coloring", "color_with_cap", "dsatur_coloring", "_search")]

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_instance must not call a solver")

        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "streamcolor":
                for key, value in list(vars(module).items()):
                    if any(value is solver for solver in solvers):
                        monkeypatch.setattr(module, key, forbidden)
        with pytest.raises(AssertionError, match="must not call a solver"):
            exact.find_k_coloring(Graph(2, [[0, 1]]), 2)
        for bit in (0, 1):
            for inst in (
                gen_two_player(64, 2, seed=1, ans_override=bit),
                gen_recursive(3, 2, plan=SMALL_PLAN, seed=1, ans_override=bit),
                gen_recursive(3, 2, seed=1, ans_override=bit),
                gen_simultaneous(4, 6, seed=1, theta_override=bit),
                gen_simultaneous(5, 8, seed=1, theta_override=bit),
            ):
                assert verify_instance(inst).ok

    def test_bipartite_part_refuses_an_edge_inside_one_side(self):
        inst = gen_simultaneous(4, 6, seed=1, theta_override=0)
        left = np.sort(inst.sigma[:2])
        parts = (np.concatenate((inst.player_edges[0], [left])),) + inst.player_edges[1:]
        report = verify_instance(dataclasses.replace(inst, player_edges=parts))
        assert [c.name for c in report.checks if not c.passed] == [
            "relabel-consistency", "bipartite-part", "gap-witness-coloring"
        ]


class TestInstanceSerialization:
    @pytest.mark.parametrize("make", [
        lambda: gen_two_player(64, 2, seed=5, ans_override=1),
        lambda: gen_recursive(3, 2, seed=5, ans_override=0),
        lambda: gen_simultaneous(4, 6, seed=5),
    ])
    def test_round_trip(self, tmp_path, make):
        inst = make()
        path = tmp_path / "inst.json"
        write_instance(inst, str(path))
        again = read_instance(str(path))
        assert len(again.edge_parts()) == len(inst.edge_parts())
        assert all(map(np.array_equal, again.edge_parts(), inst.edge_parts()))

    @pytest.mark.parametrize("make", [
        lambda: gen_two_player(64, 2, seed=5, ans_override=1),
        lambda: gen_recursive(3, 2, seed=5, ans_override=0),
        lambda: gen_simultaneous(4, 6, seed=5),
    ])
    def test_one_shortened_part_rejected(self, tmp_path, make):
        path = tmp_path / "inst.json"
        write_instance(make(), str(path))
        payload = json.loads(path.read_text())
        payload["players"][-1] = payload["players"][-1][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            read_instance(str(path))

    @pytest.mark.parametrize("make, field, value", [
        (lambda: gen_two_player(16, 2, seed=1), "seed", 1.5),
        (lambda: gen_two_player(16, 2, seed=1), "seed", True),
        (lambda: gen_two_player(16, 2, seed=1), ("params", "n"), 16.0),
        (lambda: gen_recursive(3, 2, plan=SMALL_PLAN, seed=1, ans_override=1), "ans_override", True),
        (lambda: gen_simultaneous(4, 3, seed=1, theta_override=0), "theta_override", 0.0),
    ])
    def test_non_integer_fields_rejected(self, tmp_path, make, field, value):
        # each payload regenerates the same edges through int(), so only the
        # field types tell it from the file that was written
        path = tmp_path / "inst.json"
        write_instance(make(), str(path))
        payload = json.loads(path.read_text())
        *outer, last = field if isinstance(field, tuple) else (field,)
        target = payload
        for key in outer:
            target = target[key]
        assert target[last] == int(value)
        target[last] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="must be integers"):
            read_instance(str(path))
        assert cli_main(["verify", "instance", "--file", str(path)]) == 3

    # per family: a small instance, its answer-bit field and its special-set
    # field; each instance has vertex 0 or 1 in an edge, so that a boolean
    # can stand for an equal integer (seed 24 is the first such SMALL_PLAN seed)
    FIELDS = {
        "two-player": (lambda: gen_two_player(16, 2, seed=1), "ans", "spec"),
        "recursive": (lambda: gen_recursive(3, 2, plan=SMALL_PLAN, seed=24), "ans", "spec"),
        "simultaneous": (lambda: gen_simultaneous(4, 3, seed=1), "theta", "v_clique"),
    }

    @staticmethod
    def first_edge_entry(payload, values):
        """(row, column) of the first edge entry, over every player part, in `values`."""
        for row in itertools.chain.from_iterable(payload["players"]):
            for col, value in enumerate(row):
                if value in values:
                    return row, col
        raise AssertionError(f"no edge entry in {values}")

    @pytest.mark.parametrize("family", list(FIELDS))
    @pytest.mark.parametrize("edit", ["bit", "special", "extra", "float-edge", "bool-edge", "missing"])
    def test_every_field_compared_with_the_regenerated_instance(self, tmp_path, family, edit):
        make, bit, special = self.FIELDS[family]
        path = tmp_path / "inst.json"
        write_instance(make(), str(path))
        assert cli_main(["verify", "instance", "--file", str(path)]) == 0
        payload = json.loads(path.read_text())
        if edit == "bit":
            payload[bit] ^= 1
            field = bit
        elif edit == "special":
            payload[special] = payload[special][:-1]
            field = special
        elif edit == "extra":
            payload["note"] = 0
            field = "note"
        elif edit == "missing":
            del payload[special]
            field = special
        else:
            row, col = self.first_edge_entry(payload, (0, 1) if edit == "bool-edge" else range(1 << 62))
            row[col] = bool(row[col]) if edit == "bool-edge" else float(row[col])
            field = "players"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"^stored '{field}' does not match the regenerated instance$"):
            read_instance(str(path))
        assert cli_main(["verify", "instance", "--file", str(path)]) == 3

    def test_tampered_file_rejected(self, tmp_path):
        inst = gen_two_player(64, 2, seed=8)
        path = tmp_path / "inst.json"
        write_instance(inst, str(path))
        text = path.read_text()
        tampered = text.replace('"players":[[[', '"players":[[[9999,', 1)
        # fall back to structured tampering if the raw splice missed
        if tampered == text:
            import json

            payload = json.loads(text)
            payload["players"][0] = payload["players"][0][1:]
            tampered = json.dumps(payload)
        path.write_text(tampered)
        with pytest.raises(FormatError):
            read_instance(str(path))


OVERRIDES = (None, 0, 1)


class TestDerivedFields:
    """Sizes, the recursive plan and `v_clique` are read off the data they
    describe: each equals the value a generator was given or computed, and
    none can be passed to a constructor."""

    @pytest.mark.parametrize("n, k", [(64, 2), (108, 3)])
    def test_two_player_sizes_are_the_hosts(self, n, k):
        for seed, bit in itertools.product(range(6), OVERRIDES):
            inst = gen_two_player(n, k, seed=seed, ans_override=bit)
            assert (inst.n, inst.k, inst.t) == (n, k, LineLayout(n, k, k).t_max)

    @pytest.mark.parametrize("plan", [SMALL_PLAN, default_level_plan(3, 2)])
    def test_recursive_p_k_and_plan_are_read_off_the_chain(self, plan):
        for seed, bit in itertools.product(range(6), OVERRIDES):
            inst = gen_recursive(3, 2, plan=plan, seed=seed, ans_override=bit)
            assert (inst.p, inst.k, inst.plan) == (3, 2, plan)
            assert (inst.n, inst.t) == (plan.levels[0].n, plan.levels[0].t)

    def test_recursive_chain_of_four_players(self):
        # no p = 4 plan fits `graph.MAX_VERTICES` (its level-4 host needs
        # n_4 >= (2 * 4 * 16384)^2), so a chain one level deeper is built by
        # embedding a p = 3 instance in another
        for seed, bit in itertools.product(range(6), OVERRIDES):
            inst = gen_recursive(3, 2, plan=SMALL_PLAN, seed=seed, ans_override=bit)
            deeper = dataclasses.replace(inst, inner=inst)
            assert deeper.p == 4
            assert deeper.plan == LevelPlan(n2=16, levels=SMALL_PLAN.levels * 2)

    @pytest.mark.parametrize("k, n_base", [(4, 6), (5, 7)])
    def test_simultaneous_sizes_and_clique(self, k, n_base):
        for seed, bit in itertools.product(range(6), OVERRIDES):
            inst = gen_simultaneous(k, n_base, seed=seed, theta_override=bit)
            n = k + 2 * (n_base - 1)
            assert (inst.p, inst.t, inst.n) == (k * (k - 1) // 2, n_base**2, n)
            assert len(inst.x) == inst.p and len(inst.sigma) == inst.n
            clique = np.sort(inst.sigma[2 * (n_base - 1) : 2 * (n_base - 1) + k])
            assert np.array_equal(inst.v_clique, clique) and inst.v_clique.dtype == np.int64

    @pytest.mark.parametrize(
        "make, name, value",
        [
            (lambda: gen_simultaneous(4, 6, seed=1, theta_override=0), "v_clique", np.arange(4)),
            (lambda: gen_simultaneous(4, 6, seed=1, theta_override=0), "p", 3),
            (lambda: gen_simultaneous(4, 6, seed=1), "t", 1),
            (lambda: gen_simultaneous(4, 6, seed=1), "n", 1),
            (lambda: gen_two_player(64, 2, seed=1), "n", 128),
            (lambda: gen_two_player(64, 2, seed=1), "k", 4),
            (lambda: gen_recursive(3, 2, plan=SMALL_PLAN, seed=1), "p", 4),
            (lambda: gen_recursive(3, 2, plan=SMALL_PLAN, seed=1), "k", 3),
            (lambda: gen_recursive(3, 2, plan=SMALL_PLAN, seed=1), "plan", default_level_plan(3, 2)),
        ],
    )
    def test_a_derived_field_cannot_be_replaced(self, make, name, value):
        with pytest.raises(TypeError):
            dataclasses.replace(make(), **{name: value})
