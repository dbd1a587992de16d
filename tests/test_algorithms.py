from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamcolor import (
    Graph,
    GraphSpec,
    StreamSource,
    chromatic_number,
    default_budget,
    is_proper_coloring,
    offline_iterative_coloring,
    run_dynamic,
    run_multipass,
    run_random_order,
    to_dynamic_stream,
    to_insertion_stream,
)
from streamcolor import algorithms
from streamcolor.algorithms import Evidence, OfflineColoringRun, Verdict, uniform_coloring
from streamcolor.errors import ArgumentError, PassLimitError
from streamcolor.exact import color_with_cap, dsatur_coloring
from streamcolor.graph import MAX_VERTICES, Coloring, monochromatic_edges, product_coloring
from streamcolor.seeds import rng_for

from oracles import pair_totals


def bipartite(n: int, m: int, seed: int = 0) -> Graph:
    return GraphSpec.parse(f"bipartite:n={n},m={m}").build(rng_for(seed, 0))


def planted(n: int, clique: int, seed: int = 0) -> Graph:
    return GraphSpec.parse(f"planted:n={n},clique={clique}").build(rng_for(seed, 0))


class TestBudget:
    def test_formula(self):
        assert default_budget(300, 2) == math.ceil(300**1.5 * math.log(300))

    def test_multiplier(self):
        assert default_budget(100, 2, 0.5) == math.ceil(100**1.5 * math.log(100) * 0.5)

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_multiplier_must_be_finite_and_positive(self, multiplier):
        stream = to_insertion_stream(bipartite(20, 40), "as-given")
        for budget in (
            lambda: default_budget(100, 2, multiplier),
            lambda: default_budget(1, 2, multiplier),
            lambda: offline_iterative_coloring(bipartite(20, 40), 2, budget_multiplier=multiplier),
            lambda: run_random_order(stream, 2, 2, budget_multiplier=multiplier),
            lambda: run_multipass(stream, 2, 2, seed=0, budget_multiplier=multiplier),
        ):
            with pytest.raises(ArgumentError, match="budget multiplier must be finite and > 0"):
                budget()


class TestUniformColoring:
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_is_the_canonical_all_zero_coloring(self, n):
        got, want = uniform_coloring(n), Coloring.from_array(np.zeros(n, dtype=np.int64))
        assert (got.n, got.num_colors) == (want.n, want.num_colors)
        assert got.colors.dtype == want.colors.dtype == np.int64
        assert got.colors.tobytes() == want.colors.tobytes()


class TestOfflineIterativeColoring:
    def test_bipartite_two_rounds(self):
        g = bipartite(60, 200)
        run = offline_iterative_coloring(g, 2, seed=1)
        assert run.coloring is not None
        assert is_proper_coloring(g, run.coloring)
        assert run.coloring.num_colors <= 4
        assert all(c <= 2 for c in run.round_colors)

    def test_planted_k20(self):
        g = planted(100, 20)
        run = offline_iterative_coloring(g, 2, seed=2)
        assert is_proper_coloring(g, run.coloring)
        assert run.coloring.num_colors <= 400

    def test_empty_graph_single_color(self):
        run = offline_iterative_coloring(Graph(10), 2, seed=3)
        assert run.coloring.num_colors == 1
        assert run.m_sizes == (0, 0, 0)

    def test_monochromatic_leftovers_match_m_sizes(self):
        g = planted(80, 12, seed=5)
        run = offline_iterative_coloring(g, 2, seed=5)
        leftover = monochromatic_edges(g.edge_array(), run.coloring)
        assert leftover.shape[0] == run.m_sizes[-1]

    def test_m_sizes_monotone(self):
        g = bipartite(80, 500, seed=6)
        run = offline_iterative_coloring(g, 3, seed=6)
        assert all(b <= a for a, b in zip(run.m_sizes, run.m_sizes[1:]))

    def test_small_budget_multiple_rounds(self):
        g = bipartite(60, 400, seed=7)
        run = offline_iterative_coloring(g, 2, seed=7, budget_multiplier=0.05)
        assert run.budget == default_budget(60, 2, 0.05) < g.num_edges
        assert is_proper_coloring(g, run.coloring) or run.m_sizes[-1] > 0

    def test_dsatur_colorer(self):
        g = bipartite(60, 300, seed=8)
        run = offline_iterative_coloring(g, 2, seed=8, colorer="dsatur")
        assert is_proper_coloring(g, run.coloring)

    def test_t_validated(self):
        with pytest.raises(ArgumentError):
            offline_iterative_coloring(Graph(4), 1)


class TestRunRandomOrder:
    def test_bipartite_always_small(self):
        g = bipartite(100, 1500)
        for seed in range(10):
            stream = to_insertion_stream(g, "shuffled", seed=seed)
            verdict = run_random_order(stream, 2, 2)
            assert verdict.label == "small"
            assert verdict.coloring.num_colors <= 4
            assert is_proper_coloring(g, verdict.coloring)

    def test_planted_clique_large_with_certificate(self):
        g = planted(200, 30)
        stream = to_insertion_stream(g, "shuffled", seed=3)
        verdict = run_random_order(stream, 2, 2)
        assert verdict.label == "large"
        assert verdict.evidence is not None
        sub = verdict.evidence.subgraph
        assert sub.edges <= g.edges  # evidence is a stored subgraph
        assert chromatic_number(sub, cap=2) is None  # re-verified chi > 2

    def test_empty_stream_small_one_color(self):
        verdict = run_random_order(to_insertion_stream(Graph(50)), 2, 2)
        assert verdict.label == "small"
        assert verdict.coloring.num_colors == 1

    def test_rejects_dynamic_stream(self):
        g = bipartite(20, 30)
        stream = to_dynamic_stream(g, seed=0)
        with pytest.raises(ArgumentError):
            run_random_order(stream, 2, 2)

    def test_space_accounting(self):
        g = bipartite(100, 1500)
        stream = to_insertion_stream(g, "shuffled", seed=4)
        verdict = run_random_order(stream, 2, 2)
        assert verdict.metadata["peak_stored_edges"] <= verdict.metadata["budget"]


class TestRunMultipass:
    def test_bipartite_small(self):
        g = bipartite(100, 1500)
        verdict = run_multipass(to_insertion_stream(g), 2, 3, seed=0)
        assert verdict.label == "small"
        assert is_proper_coloring(g, verdict.coloring)

    def test_planted_adversarial_order_large(self):
        g = planted(200, 30)
        stream = to_insertion_stream(g)  # sorted order = adversarial
        verdict = run_multipass(stream, 2, 2, seed=1)
        assert verdict.label == "large"
        assert chromatic_number(verdict.evidence.subgraph, cap=2) is None

    def test_reservoir_degenerate_stores_everything(self):
        g = bipartite(40, 100)
        verdict = run_multipass(to_insertion_stream(g), 2, 2, seed=2)
        # budget(40, 2) far exceeds 100 edges: the first pass stores all of M_1
        assert verdict.metadata["peak_stored_edges"] == 100
        assert verdict.metadata["passes_used"] == 1

    def test_pass_limit_environment_error(self):
        g = planted(40, 3, seed=3)
        for t in (2, 3):
            source = StreamSource(to_insertion_stream(g), max_passes=1)
            # t passes wanted, but the source only allows one; with a tiny
            # budget the first pass cannot finish the job
            with pytest.raises(PassLimitError):
                run_multipass(source, 2, t, seed=3, budget_multiplier=0.0001)
            assert source.passes_opened == 1

    def test_pass_count_reported(self):
        g = bipartite(60, 800, seed=4)
        verdict = run_multipass(to_insertion_stream(g), 2, 3, seed=4)
        assert verdict.metadata["passes_used"] <= 3


def reference_offline(g, t, seed, colorer, budget_multiplier):
    """The offline round loop written out on its own: M_{i+1} is M_i refined
    by round i's coloring, not by the accumulated one."""
    n = g.n
    budget = default_budget(n, t, budget_multiplier)
    rng = rng_for(seed, 41)
    current = g.edge_array()
    m_sizes = [current.shape[0]]
    round_colors = []
    coloring = uniform_coloring(n)
    for i in range(1, t + 1):
        if current.shape[0] <= budget:
            sample = current
        else:
            idx = rng.choice(current.shape[0], size=budget, replace=False)
            sample = current[np.sort(idx)]
        h = Graph(n, sample)
        ci = dsatur_coloring(h) if colorer == "dsatur" else color_with_cap(h)
        round_colors.append(max(ci.num_colors, 1))
        coloring = product_coloring(coloring, ci)
        current = monochromatic_edges(current, ci)
        m_sizes.append(current.shape[0])
    return OfflineColoringRun(coloring, tuple(m_sizes), tuple(round_colors), budget)


@st.composite
def offline_cases(draw):
    n = draw(st.integers(0, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                          max_size=120 if n > 1 else 0))
    return (
        Graph(n, [(u, v) for u, v in pairs if u != v]),
        draw(st.integers(2, 5)),
        draw(st.integers(0, 2**16)),
        draw(st.sampled_from(("exact", "dsatur"))),
        draw(st.sampled_from((0.002, 0.01, 0.03, 0.1, 0.3, 1.0))),
    )


def assert_same_run(got, want):
    assert got.coloring == want.coloring
    assert got.m_sizes == want.m_sizes
    assert got.round_colors == want.round_colors
    assert got.budget == want.budget


class TestOfflineMatchesPerRoundRefinement:
    @settings(max_examples=200, deadline=None)
    @given(offline_cases())
    def test_random_cases(self, case):
        g, t, seed, colorer, mult = case
        got = offline_iterative_coloring(g, t, seed=seed, colorer=colorer, budget_multiplier=mult)
        assert_same_run(got, reference_offline(g, t, seed, colorer, mult))

    @pytest.mark.parametrize("colorer", ["exact", "dsatur"])
    def test_edgeless_graph(self, colorer):
        for g in (Graph(0), Graph(1), Graph(12)):
            got = offline_iterative_coloring(g, 3, seed=1, colorer=colorer)
            assert_same_run(got, reference_offline(g, 3, 1, colorer, 1.0))
            assert got.m_sizes == (0, 0, 0, 0)
            assert got.round_colors == (1, 1, 1)

    @pytest.mark.parametrize("colorer", ["exact", "dsatur"])
    def test_m_empties_before_round_t(self, colorer):
        # the budget holds all of M_1, so round 1 colors every edge and the
        # later rounds color an empty graph
        g = bipartite(40, 150, seed=3)
        got = offline_iterative_coloring(g, 4, seed=3, colorer=colorer)
        assert_same_run(got, reference_offline(g, 4, 3, colorer, 1.0))
        assert got.m_sizes == (150, 0, 0, 0, 0)

    def test_m_empties_after_sampled_rounds(self):
        g = bipartite(60, 400, seed=7)
        got = offline_iterative_coloring(g, 5, seed=7, budget_multiplier=0.05)
        assert_same_run(got, reference_offline(g, 5, 7, "exact", 0.05))
        assert got.m_sizes[1] > 0 and got.m_sizes[-2] == 0


def reference_random_order(stream, q, t, budget_multiplier):
    """The per-event fill loop: one Python step per event read."""
    n = stream.n
    budget = default_budget(n, t, budget_multiplier)
    coloring = uniform_coloring(n)
    events = iter(stream)
    meta = {"budget": budget, "rounds_used": 0, "events_read": 0,
            "peak_stored_edges": 0, "stream_exhausted": False}
    for i in range(1, t + 1):
        stored = []
        for u, v, _ in events:
            meta["events_read"] += 1
            if coloring.colors[u] == coloring.colors[v]:
                stored.append((u, v))
                if len(stored) == budget:
                    break
        else:
            meta["stream_exhausted"] = True
        meta["rounds_used"] = i
        meta["peak_stored_edges"] = max(meta["peak_stored_edges"], len(stored))
        h = Graph(n, stored)
        ci = color_with_cap(h, q)
        if ci is None:
            return Verdict("large", evidence=Evidence("round", i, h), metadata=meta)
        coloring = product_coloring(coloring, ci)
        if meta["stream_exhausted"]:
            break
    if meta["events_read"] < len(stream):  # round t left events unread
        return Verdict("inconclusive", metadata=meta)
    return Verdict("small", coloring=coloring, metadata=meta)


def reference_multipass(stream, q, t, seed, budget_multiplier):
    """The per-event reservoir loop: one scalar draw per overflowing hit."""
    n = stream.n
    budget = default_budget(n, t, budget_multiplier)
    rng = rng_for(seed, 42)
    coloring = uniform_coloring(n)
    meta = {"budget": budget, "passes_used": 0, "peak_stored_edges": 0}
    for i in range(1, t + 1):
        meta["passes_used"] += 1
        reservoir = []
        mono_seen = 0
        for u, v, _ in stream:
            if coloring.colors[u] != coloring.colors[v]:
                continue
            mono_seen += 1
            if len(reservoir) < budget:
                reservoir.append((u, v))
            else:
                j = int(rng.integers(0, mono_seen))
                if j < budget:
                    reservoir[j] = (u, v)
        meta["peak_stored_edges"] = max(meta["peak_stored_edges"], len(reservoir))
        if mono_seen == 0:
            break
        h = Graph(n, reservoir)
        ci = color_with_cap(h, q)
        if ci is None:
            return Verdict("large", evidence=Evidence("round", i, h), metadata=meta)
        coloring = product_coloring(coloring, ci)
        if mono_seen <= budget:
            break
    if mono_seen > budget:  # pass t left monochromatic edges out
        return Verdict("inconclusive", metadata=meta)
    return Verdict("small", coloring=coloring, metadata=meta)


def assert_same_verdict(got, want):
    assert got.label == want.label
    assert got.coloring == want.coloring
    assert got.evidence == want.evidence
    assert got.metadata == want.metadata


@st.composite
def runner_cases(draw):
    n = draw(st.integers(2, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=200))
    g = Graph(n, [(u, v) for u, v in pairs if u != v])
    return (
        g,
        draw(st.integers(0, 2**16)),
        draw(st.sampled_from((2, 3))),
        draw(st.integers(2, 5)),
        draw(st.sampled_from((0.002, 0.01, 0.03, 0.1, 0.3, 1.0))),
    )


class TestInsertionRunnersMatchPerEventLoops:
    @settings(max_examples=150, deadline=None)
    @given(runner_cases())
    def test_random_cases(self, case):
        g, seed, q, t, mult = case
        stream = to_insertion_stream(g, "shuffled", seed=seed)
        assert_same_verdict(
            run_random_order(stream, q, t, budget_multiplier=mult),
            reference_random_order(stream, q, t, mult),
        )
        assert_same_verdict(
            run_multipass(stream, q, t, seed=seed, budget_multiplier=mult),
            reference_multipass(stream, q, t, seed, mult),
        )

    def exactly_budget_edges(self, mult):
        # a bipartite graph with exactly `budget` edges: every event of the
        # first round or pass is monochromatic, and round 1 is 2-colorable
        budget = default_budget(30, 3, mult)
        g = Graph(30, [(u, v) for u in range(15) for v in range(15, 30)][:budget])
        assert g.num_edges == budget
        return to_insertion_stream(g, "shuffled", seed=5)

    def test_budget_fills_on_the_last_event(self):
        stream = self.exactly_budget_edges(0.1)
        verdict = run_random_order(stream, 2, 3, budget_multiplier=0.1)
        assert_same_verdict(verdict, reference_random_order(stream, 2, 3, 0.1))
        # round 1 fills on the last event, so round 2 reads nothing and ends
        assert verdict.metadata["events_read"] == len(stream)
        assert verdict.metadata["rounds_used"] == 2
        assert verdict.metadata["stream_exhausted"]

    def test_mono_seen_equals_budget(self):
        stream = self.exactly_budget_edges(0.1)
        verdict = run_multipass(stream, 2, 3, seed=6, budget_multiplier=0.1)
        assert_same_verdict(verdict, reference_multipass(stream, 2, 3, 6, 0.1))
        assert verdict.metadata["passes_used"] == 1
        assert verdict.metadata["peak_stored_edges"] == len(stream)

    def test_repeated_reservoir_slots(self):
        g = planted(30, 6, seed=8)
        stream = to_insertion_stream(g, "shuffled", seed=8)
        budget = default_budget(30, 2, 0.01)
        # the first pass's overflow draws hit some slot more than once
        j = rng_for(9, 42).integers(0, np.arange(budget + 1, len(stream) + 1))
        assert np.bincount(j[j < budget]).max() > 1
        assert_same_verdict(
            run_multipass(stream, 2, 2, seed=9, budget_multiplier=0.01),
            reference_multipass(stream, 2, 2, 9, 0.01),
        )


class TestSmallVerdictsAreProper:
    @pytest.mark.parametrize("mult", [0.001, 0.0005])
    def test_rounds_ending_early_are_inconclusive(self, mult):
        # an odd cycle: each stored round is a 2-colorable forest, but round 2
        # ends with monochromatic edges of C_1001 left uncolored
        n = 1001
        stream = to_insertion_stream(Graph(n, [(v, (v + 1) % n) for v in range(n)]), "shuffled", seed=2)
        ro = run_random_order(stream, 2, 2, budget_multiplier=mult)
        mp = run_multipass(stream, 2, 2, seed=0, budget_multiplier=mult)
        assert ro.metadata["events_read"] < len(stream)
        for verdict in (ro, mp):
            assert (verdict.label, verdict.coloring, verdict.evidence) == ("inconclusive", None, None)

    @settings(max_examples=150, deadline=None)
    @given(runner_cases())
    def test_every_small_verdict_is_proper(self, case):
        g, seed, q, t, mult = case
        stream = to_insertion_stream(g, "shuffled", seed=seed)
        for verdict in (
            run_random_order(stream, q, t, budget_multiplier=mult),
            run_multipass(stream, q, t, seed=seed, budget_multiplier=mult),
        ):
            assert verdict.label in ("small", "large", "inconclusive")
            if verdict.label == "small":
                assert is_proper_coloring(stream.final_graph(), verdict.coloring)


class TestMultipassOpensPassesOnlyWhileRunning:
    @settings(max_examples=100, deadline=None)
    @given(runner_cases())
    @example((bipartite(40, 100), 2, 2, 3, 1.0))  # the first pass stores all of M_1
    def test_no_pass_opened_after_an_early_stop(self, case):
        g, seed, q, t, mult = case
        source = StreamSource(to_insertion_stream(g, "shuffled", seed=seed), max_passes=t)
        verdict = run_multipass(source, q, t, seed=seed, budget_multiplier=mult)
        assert source.passes_opened == verdict.metadata["passes_used"] <= t


class TestRunDynamic:
    def test_bipartite_final_small(self):
        g = bipartite(100, 1200)
        for seed in range(5):
            stream = to_dynamic_stream(g, extra_pairs=50, cycles=1, seed=seed)
            verdict = run_dynamic(stream, 2, 32, seed=seed)
            assert verdict.label == "small"
            assert verdict.metadata["mode"] == "sampled"

    def test_planted_with_churn_large(self):
        g = planted(256, 64)
        stream = to_dynamic_stream(g, extra_pairs=500, cycles=2, seed=1)
        verdict = run_dynamic(stream, 2, 32, seed=1)
        assert verdict.label == "large"
        final = stream.final_graph()
        assert verdict.evidence.subgraph.edges <= final.edges
        assert chromatic_number(verdict.evidence.subgraph, cap=2) is None

    def test_insert_then_delete_everything_small(self):
        g = Graph(64)
        stream = to_dynamic_stream(g, extra_pairs=30, cycles=2, seed=2)
        verdict = run_dynamic(stream, 2, 32, seed=2)
        assert verdict.label == "small"

    def test_fallback_mode_flagged(self):
        g = planted(64, 10, seed=3)
        stream = to_dynamic_stream(g, seed=3)
        verdict = run_dynamic(stream, 2, 4, seed=3)  # t < 4 log2 n
        assert verdict.metadata["mode"] == "full-graph-fallback"
        assert verdict.label == "large"

    def test_fallback_small_side(self):
        g = bipartite(64, 200, seed=4)
        stream = to_dynamic_stream(g, seed=4)
        verdict = run_dynamic(stream, 2, 4, seed=4)
        assert verdict.label == "small"
        assert verdict.metadata["mode"] == "full-graph-fallback"

    def test_sampled_sizes_reported(self):
        g = bipartite(128, 500, seed=5)
        stream = to_dynamic_stream(g, seed=5)
        verdict = run_dynamic(stream, 2, 32, seed=5)
        assert verdict.metadata["k_trials"] == math.ceil(2 * math.log2(128))
        assert len(verdict.metadata["sampled_sizes"]) == verdict.metadata["k_trials"]

    def test_counter_space_bound(self):
        # counters never exceed sum over trials of C(|V_i|, 2)
        g = bipartite(128, 1000, seed=6)
        stream = to_dynamic_stream(g, extra_pairs=200, cycles=2, seed=6)
        verdict = run_dynamic(stream, 2, 32, seed=6)
        cap = sum(s * (s - 1) // 2 for s in verdict.metadata["sampled_sizes"])
        assert verdict.metadata["counters"] <= cap

    def test_counters_match_per_event_replay(self):
        # reference: replay every event into one dict of counters per trial
        g = planted(128, 14, seed=7)
        stream = to_dynamic_stream(g, extra_pairs=300, cycles=2, seed=7)
        verdict = run_dynamic(stream, 2, 32, seed=7)
        meta = verdict.metadata
        member = rng_for(7, 43).random((meta["k_trials"], 128)) < meta["p"]
        counters = [{} for _ in member]
        for u, v, delta in stream:
            for row, d in zip(member, counters):
                if row[u] and row[v]:
                    d[(u, v)] = d.get((u, v), 0) + delta
        assert meta["counters"] == sum(len(d) for d in counters)
        assert verdict.label == "large"
        tr = verdict.evidence.index
        assert verdict.evidence.subgraph.edges == {e for e, c in counters[tr].items() if c > 0}


def reference_run_dynamic(stream, q, t, seed):
    """The per-trial counter pass: one `pair_totals` over the events each trial sees."""
    n = stream.n
    if n <= 1:
        return Verdict(label="small", metadata={"mode": "degenerate"})
    regime_floor = 4 * math.log2(n)
    if t < regime_floor:
        pairs, totals = pair_totals(n, stream.events)  # not the totals the stream kept
        final = Graph(n, pairs[totals > 0])
        ci = color_with_cap(final, q)
        meta = {
            "mode": "full-graph-fallback",
            "regime_floor": regime_floor,
            "stored_pairs": final.num_edges,
        }
        if ci is None:
            return Verdict(label="large", evidence=Evidence("final", 0, final), metadata=meta)
        return Verdict(label="small", metadata=meta)
    p = 4.0 * math.log(n) / t
    k_trials = math.ceil(2 * math.log2(n))
    member = rng_for(seed, 43).random((k_trials, n)) < p
    u, v, _ = stream.events.T
    counters = [pair_totals(n, stream.events[seen]) for seen in member[:, u] & member[:, v]]
    meta = {
        "mode": "sampled",
        "p": p,
        "k_trials": k_trials,
        "sampled_sizes": [int(member[tr].sum()) for tr in range(k_trials)],
        "counters": sum(len(pairs) for pairs, _ in counters),
    }
    for tr, (pairs, totals) in enumerate(counters):
        h = Graph(n, pairs[totals > 0])
        if color_with_cap(h, q) is None:
            return Verdict(label="large", evidence=Evidence("trial", tr, h), metadata=meta)
    return Verdict(label="small", metadata=meta)


@st.composite
def dynamic_cases(draw):
    """A graph on n <= 60 whose edges avoid the ids below `lo` and from `hi`
    up, so isolated vertices sit at both ends, plus churn and runner settings.
    Half the graphs are bipartite (each edge joins an even and an odd id), so
    the runner's union 2-coloring often decides every trial."""
    n = draw(st.integers(2, 60))
    lo = draw(st.integers(0, n - 2))
    hi = draw(st.integers(lo + 2, n))
    a, b = np.triu_indices(hi - lo, 1)
    if draw(st.booleans()):
        a, b = a[(b - a) % 2 == 1], b[(b - a) % 2 == 1]
    m = draw(st.integers(0, min(len(a), 300)))
    pick = np.random.default_rng(draw(st.integers(0, 2**16))).choice(len(a), m, replace=False)
    g = Graph(n, np.column_stack((a[pick], b[pick])) + lo)
    available = n * (n - 1) // 2 - g.num_edges
    return (
        g,
        draw(st.integers(0, min(available, 120))),
        draw(st.integers(0, 3)),
        draw(st.integers(0, 2**16)),
        draw(st.integers(2, 4)),
        draw(st.sampled_from((1, 4, 32, 64))),
    )


class TestRunDynamicMatchesPerTrialPass:
    @settings(max_examples=200, deadline=None)
    @given(dynamic_cases())
    def test_random_cases(self, case):
        g, extra, cycles, seed, q, t = case
        stream = to_dynamic_stream(g, extra_pairs=extra, cycles=cycles, seed=seed)
        got = run_dynamic(stream, q, t, seed=seed)
        want = reference_run_dynamic(stream, q, t, seed)
        assert got.label == want.label
        assert json.dumps(got.metadata, sort_keys=True) == json.dumps(want.metadata, sort_keys=True)
        assert (got.evidence is None) == (want.evidence is None)
        if got.evidence is not None:
            assert (got.evidence.kind, got.evidence.index) == (want.evidence.kind, want.evidence.index)
            assert got.evidence.subgraph.edge_array().tobytes() == want.evidence.subgraph.edge_array().tobytes()

    @pytest.mark.parametrize("t, mode", [(32, "sampled"), (4, "full-graph-fallback")])
    def test_one_pair_totals_call(self, monkeypatch, t, mode):
        # the one pair-level pass is the stream's validation sort: the runner
        # reads the table it kept, the object served before the run
        g = planted(128, 14, seed=7)
        stream = to_dynamic_stream(g, extra_pairs=300, cycles=2, seed=7)
        want = reference_run_dynamic(stream, 2, t, 7)
        kept, serve, served = stream.pair_totals(), stream.pair_totals, []

        def recording():
            served.append(serve())
            return served[-1]

        monkeypatch.setattr(stream, "pair_totals", recording)
        verdict = run_dynamic(stream, 2, t, seed=7)
        assert verdict.metadata["mode"] == mode
        assert_same_verdict(verdict, want)
        assert served and all(table is kept for table in served)

    def count_colorings(self, monkeypatch):
        caps = []

        def counting(g, cap=None):
            caps.append(cap)
            return color_with_cap(g, cap)

        monkeypatch.setattr(algorithms, "color_with_cap", counting)
        return caps

    @pytest.mark.parametrize("q", [2, 3])
    def test_bipartite_union_colored_once(self, monkeypatch, q):
        stream = to_dynamic_stream(bipartite(200, 5000, seed=1), extra_pairs=100, cycles=1, seed=1)
        caps = self.count_colorings(monkeypatch)
        verdict = run_dynamic(stream, q, 32, seed=1)
        assert verdict.label == "small" and verdict.metadata["mode"] == "sampled"
        assert caps == [2]

    def test_planted_keeps_the_first_failing_trial(self, monkeypatch):
        stream = to_dynamic_stream(planted(256, 64), extra_pairs=500, cycles=2, seed=1)
        want = reference_run_dynamic(stream, 2, 32, 1)
        caps = self.count_colorings(monkeypatch)
        got = run_dynamic(stream, 2, 32, seed=1)
        assert_same_verdict(got, want)
        assert got.evidence.kind == "trial"
        assert got.evidence.subgraph.edge_array().tobytes() == want.evidence.subgraph.edge_array().tobytes()
        # the union fails to 2-color, then trials are colored up to the first failure
        assert caps == [2] * (want.evidence.index + 2)

    @staticmethod
    def last_trial_triangle_case(n: int, k_trials: int):
        """A sparse bipartite graph on n vertices plus one triangle that only
        the last trial holds, with the smallest seed that gives one; t sets the
        per-vertex probability to 0.2, inside the sampled regime."""
        t = math.ceil(20 * math.log(n))
        assert t >= 4 * math.log2(n) and math.ceil(2 * math.log2(n)) == k_trials
        for seed in range(50):
            member = rng_for(seed, 43).random((k_trials, n)) < 4.0 * math.log(n) / t
            *earlier, last = member
            tri = np.flatnonzero(last)[:3]
            if len(tri) == 3 and not any(np.all(row[tri]) for row in earlier):
                break
        else:
            raise AssertionError("no seed in range puts a triangle in the last trial alone")
        rest = np.setdiff1d(np.arange(n), tri)
        rng = np.random.default_rng(seed)
        even, odd = rest[rest % 2 == 0], rest[rest % 2 == 1]
        m = min(n, 2000)
        bip = np.column_stack((rng.choice(even, m), rng.choice(odd, m)))
        triangle = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
        g = Graph(n, np.concatenate((bip, triangle)))
        return to_dynamic_stream(g, extra_pairs=m // 4, cycles=1, seed=seed), t, seed

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n, k_trials", [(17, 9), (257, 17), (4097, 25), (65537, 33)])
    def test_trials_past_each_byte_boundary(self, n, k_trials, q):
        # a pair's trials are the bits of one uint64 word; at q = 2 the union
        # fails to 2-color and the last trial, the first with an odd cycle, is
        # the evidence, and at q = 3 every trial is colored
        stream, t, seed = self.last_trial_triangle_case(n, k_trials)
        got = run_dynamic(stream, q, t, seed=seed)
        want = reference_run_dynamic(stream, q, t, seed)
        assert got.metadata["mode"] == "sampled" and got.metadata["k_trials"] == k_trials
        assert got.label == want.label == ("large" if q == 2 else "small")
        assert json.dumps(got.metadata) == json.dumps(want.metadata)
        if q == 2:
            where = ("trial", k_trials - 1)
            assert (got.evidence.kind, got.evidence.index) == (want.evidence.kind, want.evidence.index) == where
            assert got.evidence.subgraph.edge_array().tobytes() == want.evidence.subgraph.edge_array().tobytes()
        else:
            assert got.evidence is None is want.evidence

    def test_bit_count_reads_all_64_bits(self):
        words = np.random.default_rng(0).integers(0, 2**64, 1000, dtype=np.uint64)
        words[:3] = [0, 2**64 - 1, 2**63]
        assert algorithms._bit_count(words) == sum(bin(int(w)).count("1") for w in words)

    def test_one_word_holds_every_trial(self):
        # k_trials = ceil(2 log2 n) <= 63 for every n the graph layer takes
        assert math.ceil(2 * math.log2(MAX_VERTICES)) <= 63
